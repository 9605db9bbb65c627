// Package mcmc implements the Markov chain Monte Carlo baseline that the
// paper's background section positions variational inference against
// (Section II: "the computational work required to draw enough samples makes
// it poorly suited to large-scale problems"). It samples the exact
// single-source posterior — Poisson pixel likelihood times the priors — with
// Metropolis-within-Gibbs: block proposals for position, brightness, colors,
// galaxy shape, and a type-flip move. The VI-versus-MCMC benchmark
// quantifies the paper's motivating claim on identical scenes.
package mcmc

import (
	"math"

	"celeste/internal/elbo"
	"celeste/internal/galprof"
	"celeste/internal/geom"
	"celeste/internal/mathx"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

// State is one point in the exact model's parameter space: the generative
// variables of a single source (not the variational parameters — MCMC
// samples the true posterior directly).
type State struct {
	IsGal   bool
	Pos     geom.Pt2
	LogFlux float64 // log reference-band flux
	Colors  [model.NumColors]float64
	// Galaxy shape (ignored by the likelihood when IsGal is false).
	DevFrac, AxisRatio, Angle float64
	LogScale                  float64 // log half-light radius (log degrees)
}

// Problem is a single-source posterior: images with fixed backgrounds (as in
// block coordinate ascent, neighbors enter through Patch.Bg) and the priors.
// It owns the elbo.Builder its patches were built in — a builder's patches
// are valid only until its next Build, and nobody else can reach this one —
// so the patches live exactly as long as the problem.
type Problem struct {
	Priors  *model.Priors
	Patches []*elbo.Patch // storage owned by bld

	bld              elbo.Builder
	expProf, devProf []mog.ProfComp
}

// NewProblem builds the sampling problem over the same active patches the
// ELBO uses.
func NewProblem(priors *model.Priors, images []*survey.Image, pos geom.Pt2, radiusPx float64) *Problem {
	p := &Problem{
		Priors:  priors,
		expProf: galprof.Exponential(),
		devProf: galprof.DeVaucouleurs(),
	}
	p.Patches = p.bld.Build(priors, images, pos, radiusPx).Patches
	return p
}

// LogPosterior returns the unnormalized log posterior of a state: the exact
// Poisson log likelihood over the active pixels plus the log priors.
func (p *Problem) LogPosterior(s *State) float64 {
	lp := p.logPrior(s)
	if math.IsInf(lp, -1) {
		return lp
	}
	flux := model.FluxesFromColors(math.Exp(s.LogFlux), s.Colors)

	for _, patch := range p.Patches {
		px, py := patch.WCS.WorldToPix(s.Pos)
		var m mog.Mixture
		if s.IsGal {
			rho := s.DevFrac
			comb := make([]mog.ProfComp, 0, len(p.expProf)+len(p.devProf))
			for _, pc := range p.expProf {
				comb = append(comb, mog.ProfComp{Weight: (1 - rho) * pc.Weight, Var: pc.Var})
			}
			for _, pc := range p.devProf {
				comb = append(comb, mog.ProfComp{Weight: rho * pc.Weight, Var: pc.Var})
			}
			m = mog.GalaxyMixture(patch.PSF, comb, s.AxisRatio, s.Angle,
				math.Exp(s.LogScale), model.JacFromWCS(patch.WCS))
		} else {
			m = patch.PSF
		}
		amp := flux[patch.Band] * patch.Iota
		k := 0
		for y := patch.Rect.Y0; y < patch.Rect.Y1; y++ {
			for x := patch.Rect.X0; x < patch.Rect.X1; x++ {
				obs := patch.Obs[k]
				bg := patch.Bg[k]
				k++
				f := bg + amp*m.Eval(float64(x)-px, float64(y)-py)
				if f <= 0 {
					return math.Inf(-1)
				}
				lp += obs*math.Log(f) - f
			}
		}
	}
	return lp
}

// logPrior evaluates the generative priors at a state.
func (p *Problem) logPrior(s *State) float64 {
	pr := p.Priors
	t := model.Star
	lp := math.Log(mathx.Clamp(1-pr.ProbGal, mathx.Eps, 1))
	if s.IsGal {
		t = model.Gal
		lp = math.Log(mathx.Clamp(pr.ProbGal, mathx.Eps, 1))
	}
	lp += mathx.NormalLogPDF(s.LogFlux, pr.R1Mean[t], pr.R1SD[t])
	// Color prior: mixture over the NumPriorComps components.
	comp := make([]float64, model.NumPriorComps)
	for d := 0; d < model.NumPriorComps; d++ {
		l := math.Log(mathx.Clamp(pr.KWeight[t][d], mathx.Eps, 1))
		for i := 0; i < model.NumColors; i++ {
			l += mathx.NormalLogPDF(s.Colors[i], pr.CMean[t][d][i],
				math.Sqrt(pr.CVar[t][d][i]))
		}
		comp[d] = l
	}
	lp += mathx.LogSumExp(comp)
	if s.IsGal {
		if s.DevFrac <= 0 || s.DevFrac >= 1 || s.AxisRatio <= 0.02 || s.AxisRatio >= 1 {
			return math.Inf(-1)
		}
		lp += mathx.NormalLogPDF(s.LogScale, pr.GalScaleLogMean, pr.GalScaleLogSD)
	}
	return lp
}

// Options tunes the sampler.
type Options struct {
	Samples int // recorded samples (default 2000)
	BurnIn  int // discarded initial samples (default 500)
	Thin    int // keep one sample every Thin steps (default 2)

	// Proposal scales.
	PosStepDeg   float64 // default 0.3 pixels' worth
	FluxStep     float64 // log-flux random walk SD (default 0.05)
	ColorStep    float64 // default 0.05
	ShapeStep    float64 // default 0.08
	TypeFlipProb float64 // probability of proposing a type change (default 0.1)
}

func (o *Options) defaults() {
	if o.Samples == 0 {
		o.Samples = 2000
	}
	if o.BurnIn == 0 {
		o.BurnIn = 500
	}
	if o.Thin == 0 {
		o.Thin = 2
	}
	if o.PosStepDeg == 0 {
		o.PosStepDeg = 0.3 * 1.1e-4
	}
	if o.FluxStep == 0 {
		o.FluxStep = 0.05
	}
	if o.ColorStep == 0 {
		o.ColorStep = 0.05
	}
	if o.ShapeStep == 0 {
		o.ShapeStep = 0.08
	}
	if o.TypeFlipProb == 0 {
		o.TypeFlipProb = 0.1
	}
}

// Result summarizes a posterior sample.
type Result struct {
	ProbGal        float64
	FluxMean       [model.NumBands]float64
	FluxSD         [model.NumBands]float64
	PosMean        geom.Pt2
	LogLikeEvals   int64 // likelihood evaluations performed
	AcceptanceRate float64
	Samples        []State // thinned chain (post burn-in)
}

// InitState builds a starting state from a catalog entry.
func InitState(e *model.CatalogEntry) State {
	s := State{
		IsGal:     e.IsGal(),
		Pos:       e.Pos,
		LogFlux:   math.Log(math.Max(e.Flux[model.RefBand], 1e-3)),
		DevFrac:   mathx.Clamp(e.GalDevFrac, 0.05, 0.95),
		AxisRatio: mathx.Clamp(e.GalAxisRatio, 0.1, 0.95),
		Angle:     mathx.WrapAngle(e.GalAngle),
	}
	ok := true
	for b := 0; b < model.NumBands; b++ {
		if e.Flux[b] <= 0 {
			ok = false
		}
	}
	if ok {
		s.Colors = e.Colors()
	} else {
		s.Colors = [model.NumColors]float64{0.5, 0.5, 0.3, 0.2}
	}
	if e.GalScale > 0 {
		s.LogScale = math.Log(e.GalScale)
	} else {
		s.LogScale = math.Log(1.5 / 3600)
	}
	return s
}

// Run samples the posterior with Metropolis-within-Gibbs from the given
// start, returning posterior summaries and cost counters.
func (p *Problem) Run(start State, r *rng.Source, o Options) *Result {
	o.defaults()
	cur := start
	curLP := p.LogPosterior(&cur)
	res := &Result{}
	res.LogLikeEvals++

	var accepted, proposed int64
	propose := func(mutate func(*State)) {
		next := cur
		mutate(&next)
		next.Angle = mathx.WrapAngle(next.Angle)
		lp := p.LogPosterior(&next)
		res.LogLikeEvals++
		proposed++
		if lp >= curLP || r.Float64() < math.Exp(lp-curLP) {
			cur = next
			curLP = lp
			accepted++
		}
	}

	totalSteps := o.BurnIn + o.Samples*o.Thin
	var fluxSum, fluxSumSq [model.NumBands]float64
	var nGal, n float64
	var posRA, posDec float64

	for step := 0; step < totalSteps; step++ {
		// One Gibbs sweep: each block gets a proposal.
		propose(func(s *State) {
			s.Pos.RA += r.Normal() * o.PosStepDeg
			s.Pos.Dec += r.Normal() * o.PosStepDeg
		})
		propose(func(s *State) { s.LogFlux += r.Normal() * o.FluxStep })
		propose(func(s *State) {
			for i := range s.Colors {
				s.Colors[i] += r.Normal() * o.ColorStep
			}
		})
		if cur.IsGal {
			propose(func(s *State) {
				s.DevFrac = mathx.Clamp(s.DevFrac+r.Normal()*o.ShapeStep, 1e-3, 1-1e-3)
				s.AxisRatio = mathx.Clamp(s.AxisRatio+r.Normal()*o.ShapeStep, 0.03, 0.99)
				s.Angle += r.Normal() * o.ShapeStep
				s.LogScale += r.Normal() * o.ShapeStep
			})
		}
		if r.Float64() < o.TypeFlipProb {
			propose(func(s *State) { s.IsGal = !s.IsGal })
		}

		if step < o.BurnIn || (step-o.BurnIn)%o.Thin != 0 {
			continue
		}
		res.Samples = append(res.Samples, cur)
		flux := model.FluxesFromColors(math.Exp(cur.LogFlux), cur.Colors)
		for b := 0; b < model.NumBands; b++ {
			fluxSum[b] += flux[b]
			fluxSumSq[b] += flux[b] * flux[b]
		}
		if cur.IsGal {
			nGal++
		}
		posRA += cur.Pos.RA
		posDec += cur.Pos.Dec
		n++
	}

	res.AcceptanceRate = float64(accepted) / float64(proposed)
	res.ProbGal = nGal / n
	res.PosMean = geom.Pt2{RA: posRA / n, Dec: posDec / n}
	for b := 0; b < model.NumBands; b++ {
		mean := fluxSum[b] / n
		res.FluxMean[b] = mean
		res.FluxSD[b] = math.Sqrt(math.Max(fluxSumSq[b]/n-mean*mean, 0))
	}
	return res
}

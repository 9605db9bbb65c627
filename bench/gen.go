package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

// skySpec pins one inference workload's input. The source population and
// the initialization catalog are part of the workload definition (drawn from
// PopSeed, which never changes); the benchmark's -seed draws a fresh
// observation of that population — dithers, per-run calibration, and every
// pixel's Poisson noise. A seed that redrew the population too moved
// catalog_wall_s by ±20% between seeds (task count 4..10 on 39 sources),
// four times the machine's run-to-run noise, so no bound under 25% could
// hold; see README.md, "Seeds".
type skySpec struct {
	PopSeed  uint64
	Side     float64 // region side, degrees
	Density  float64 // sources per square degree
	Runs     int     // full-coverage epochs
	DeepRuns int     // extra epochs over the deep (lower) half
	Field    int     // field size, pixels
	FluxMean float64 // mean reference-band flux, nmgy
}

// config is the survey configuration cmd/skygen would build from the same
// flags.
func (s skySpec) config() survey.Config {
	cfg := survey.DefaultConfig(s.PopSeed)
	cfg.Region = geom.NewBox(0, 0, s.Side, s.Side)
	cfg.DeepRegion = geom.NewBox(0, 0, s.Side, s.Side/2)
	cfg.Runs = s.Runs
	cfg.DeepRuns = s.DeepRuns
	cfg.SourceDensity = s.Density
	cfg.FieldW, cfg.FieldH = s.Field, s.Field
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(s.FluxMean), math.Log(1.3 * s.FluxMean)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.6, 0.6}
	return cfg
}

// generateSky returns the workload's survey as observed under obsSeed, and
// the initialization catalog.
func generateSky(spec skySpec, obsSeed uint64) (*survey.Survey, []model.CatalogEntry) {
	cfg := spec.config()
	// survey.Generate with no epochs samples exactly the population it
	// would image, so the truth catalog comes from the program's own sampler.
	pop := cfg
	pop.Runs, pop.DeepRuns = 0, 0
	sv := survey.Generate(pop)
	sv.Config = cfg
	init := sv.NoisyCatalog(spec.PopSeed + 1)

	// Image the population. survey.Generate draws population and pixels from
	// one seed, so the tiling and rendering are repeated here with a
	// generator of their own.
	r := rng.New(obsSeed)
	for run := 0; run < cfg.Runs; run++ {
		observe(sv, r, run, cfg.Region)
	}
	for run := 0; run < cfg.DeepRuns; run++ {
		observe(sv, r, cfg.Runs+run, cfg.DeepRegion)
	}
	return sv, init
}

// observe appends one epoch over box: every field in all five bands, with
// the epoch's own dither, calibration, seeing and photon noise.
func observe(sv *survey.Survey, r *rng.Source, run int, box geom.Box) {
	cfg := sv.Config
	fieldW := float64(cfg.FieldW) * cfg.PixScale
	fieldH := float64(cfg.FieldH) * cfg.PixScale
	ditherRA := (r.Float64() - 0.5) * 4 * cfg.PixScale
	ditherDec := (r.Float64() - 0.5) * 4 * cfg.PixScale
	uniform := func(rg [2]float64) float64 { return rg[0] + r.Float64()*(rg[1]-rg[0]) }
	var iota, sky, sigma [model.NumBands]float64
	for b := range iota {
		iota[b], sky[b], sigma[b] = uniform(cfg.IotaRange), uniform(cfg.SkyRange), uniform(cfg.PSFSigmaRange)
	}
	field := 0
	for dec := box.MinDec + ditherDec - fieldH/2; dec < box.MaxDec; dec += fieldH {
		for ra := box.MinRA + ditherRA - fieldW/2; ra < box.MaxRA; ra += fieldW {
			for b := 0; b < model.NumBands; b++ {
				im := &survey.Image{
					ID: len(sv.Images), Run: run, Field: field, Band: b,
					W: cfg.FieldW, H: cfg.FieldH,
					WCS: geom.NewSimpleWCS(ra, dec, cfg.PixScale), PSF: psf.Default(sigma[b]),
					Iota: iota[b], Sky: sky[b],
					Pixels: make([]float64, cfg.FieldW*cfg.FieldH),
				}
				for i := range im.Pixels {
					im.Pixels[i] = im.Sky
				}
				reach := im.Footprint().Expand(50 * cfg.PixScale)
				for i := range sv.Truth {
					if e := &sv.Truth[i]; reach.Contains(e.Pos) {
						model.AddExpectedCounts(im.Pixels, im.W, im.H, im.WCS, im.PSF, e, b, im.Iota, 5.5)
					}
				}
				for i, lam := range im.Pixels {
					im.Pixels[i] = float64(r.Poisson(lam))
				}
				sv.Images = append(sv.Images, im)
			}
			field++
		}
	}
}

// obsSeed derives the seed of draw i from the benchmark seed. It does not
// depend on the workload, so tcp_spawn2 reads the bytes wide_shallow reads.
func obsSeed(seed uint64, draw int) uint64 { return seed*0x9e3779b97f4a7c15 + uint64(draw) + 1 }

// catalogFixture is a seeded posterior catalog of n sources over the unit
// box, the shape a finished run would hand to catserve.
func catalogFixture(seed uint64, n int) (geom.Box, []model.CatalogEntry) {
	r := rng.New(seed)
	entries := make([]model.CatalogEntry, n)
	for i := range entries {
		e := &entries[i]
		e.ID = i
		e.Pos = geom.Pt2{RA: r.Float64(), Dec: r.Float64()}
		e.ProbGal = r.Float64()
		e.ProbGalSD = math.Sqrt(e.ProbGal * (1 - e.ProbGal))
		for b := range e.Flux {
			e.Flux[b] = r.LogNormal(math.Log(20), 1)
			e.FluxSD[b] = 0.05 * e.Flux[b]
		}
	}
	return geom.NewBox(0, 0, 1, 1), entries
}

// query is one catalog request: its HTTP target and the region it asks for,
// kept so a sampled response can be checked against a scan of the catalog.
type query struct {
	Target string
	Center geom.Pt2 // cone
	Radius float64  // cone; 0 for a box query
	Box    geom.Box
}

// matches reports whether a source at p belongs in the query's answer, by
// the rules catserve documents (closed cone, half-open box).
func (q *query) matches(p geom.Pt2) bool {
	if q.Radius > 0 {
		return geom.Dist(q.Center, p) <= q.Radius
	}
	return q.Box.Contains(p)
}

// coneQuery draws a cone of 3-20 sources' worth of area at 20000 sources.
func coneQuery(r *rng.Source) query {
	q := query{Center: geom.Pt2{RA: r.Float64(), Dec: r.Float64()}, Radius: 0.007 + 0.011*r.Float64()}
	q.Target = fmt.Sprintf("/cone?ra=%.6f&dec=%.6f&r=%.6f", q.Center.RA, q.Center.Dec, q.Radius)
	// The server parses the printed digits, so the check must too.
	fmt.Sscanf(q.Target, "/cone?ra=%f&dec=%f&r=%f", &q.Center.RA, &q.Center.Dec, &q.Radius)
	return q
}

// hotQueries is the repeated cycle: mostly cones, some boxes.
func hotQueries(seed uint64, n int) []query {
	r := rng.New(seed ^ 0x686f74)
	qs := make([]query, n)
	for i := range qs {
		if i%5 != 4 {
			qs[i] = coneQuery(r)
			continue
		}
		x, y := 0.95*r.Float64(), 0.95*r.Float64()
		q := query{}
		q.Target = fmt.Sprintf("/box?ramin=%.6f&decmin=%.6f&ramax=%.6f&decmax=%.6f", x, y, x+0.03, y+0.03)
		fmt.Sscanf(q.Target, "/box?ramin=%f&decmin=%f&ramax=%f&decmax=%f",
			&q.Box.MinRA, &q.Box.MinDec, &q.Box.MaxRA, &q.Box.MaxDec)
		qs[i] = q
	}
	return qs
}

// churn generates the writer's publishes: batch after batch of refreshed
// summaries, as task commits would produce them — fluxes move, and positions
// move by up to a pixel so some sources change quadtree cell. Two churns of
// the same seed and catalog produce the same batches, which is how the
// response check rebuilds the catalog as of any published version without
// keeping the batches.
type churn struct {
	r     *rng.Source
	state []model.CatalogEntry // the catalog after the batches so far
	order []int                // batches take consecutive windows of this permutation
	at    int
}

func newChurn(seed uint64, catalog []model.CatalogEntry) *churn {
	r := rng.New(seed ^ 0x636875726e)
	return &churn{r: r, state: append([]model.CatalogEntry(nil), catalog...), order: r.Perm(len(catalog))}
}

// next returns the next batch of n distinct sources, and applies it to state.
func (c *churn) next(n int) ([]int, []model.CatalogEntry) {
	idx := make([]int, n)
	ents := make([]model.CatalogEntry, n)
	for k := range idx {
		i := c.order[c.at]
		c.at = (c.at + 1) % len(c.order)
		e := &c.state[i]
		e.Pos.RA += (c.r.Float64() - 0.5) * 2.2e-4
		e.Pos.Dec += (c.r.Float64() - 0.5) * 2.2e-4
		for b := range e.Flux {
			e.Flux[b] *= 1 + 0.02*(c.r.Float64()-0.5)
		}
		idx[k], ents[k] = i, *e
	}
	return idx, ents
}

// dirFingerprint hashes the names and contents of the regular files in dir,
// in name order.
func dirFingerprint(dir string) (sum string, bytes int64, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	for _, de := range names { // ReadDir sorts by name
		if !de.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", de.Name(), len(data))
		h.Write(data)
		bytes += int64(len(data))
	}
	return hex.EncodeToString(h.Sum(nil)), bytes, nil
}

// reassemble rebuilds the Survey cmd/celeste builds around frames loaded from
// disk (its function of the same name): the region is the union of the frame
// footprints, which is what the partition and the run hash then see.
func reassemble(images []*survey.Image, truth []model.CatalogEntry) *survey.Survey {
	sv := &survey.Survey{Images: images, Truth: truth}
	if len(images) == 0 {
		return sv
	}
	fp := images[0].Footprint()
	for _, im := range images[1:] {
		f := im.Footprint()
		fp.MinRA, fp.MinDec = math.Min(fp.MinRA, f.MinRA), math.Min(fp.MinDec, f.MinDec)
		fp.MaxRA, fp.MaxDec = math.Max(fp.MaxRA, f.MaxRA), math.Max(fp.MaxDec, f.MaxDec)
	}
	sv.Config.Region = fp
	sv.Config.PixScale = images[0].WCS.PixScale()
	sv.Config.FieldW, sv.Config.FieldH = images[0].W, images[0].H
	return sv
}

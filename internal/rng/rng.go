// Package rng provides a deterministic, splittable random number generator
// and the samplers Celeste needs (normal, log-normal, Poisson, categorical,
// gamma). Determinism matters twice over: synthetic surveys must be exactly
// reproducible across runs, and Cyclades sampling inside the optimizer must
// be replayable when debugging convergence.
//
// The core generator is xoshiro256** seeded through SplitMix64, following
// Blackman & Vigna. Each Source is independent; Split derives a stream that
// is statistically independent of its parent, so concurrent workers can each
// own a private stream without locking.
package rng

import "math"

// Source is a xoshiro256** generator. It is not safe for concurrent use;
// use Split to derive per-goroutine streams.
type Source struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller pair
	hasGauss bool
	gauss    float64
}

// New returns a Source seeded deterministically from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Split derives an independent child stream. The child is seeded from the
// parent's next output mixed with a distinct constant, so repeated Split
// calls yield distinct streams.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's bounded rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Normal returns a sample from N(0, 1) using the polar Box-Muller method.
func (r *Source) Normal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// NormalMV returns a sample from N(mu, sigma^2).
func (r *Source) NormalMV(mu, sigma float64) float64 {
	return mu + sigma*r.Normal()
}

// LogNormal returns a sample X with log X ~ N(mu, sigma^2).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormalMV(mu, sigma))
}

// Poisson returns a sample from Poisson(lambda). For small lambda it uses
// Knuth inversion; for large lambda the PTRS transformed-rejection method of
// Hörmann, which has bounded expected iterations for all lambda.
func (r *Source) Poisson(lambda float64) int64 {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		return r.poissonKnuth(lambda)
	default:
		return r.poissonPTRS(lambda)
	}
}

func (r *Source) poissonKnuth(lambda float64) int64 {
	l := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func (r *Source) poissonPTRS(lambda float64) int64 {
	// W. Hörmann, "The transformed rejection method for generating Poisson
	// random variables", Insurance: Mathematics and Economics 12 (1993).
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invalpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invalpha / (a/(us*us) + b))
		rhs := -lambda + k*logLam - lgammaPlus1(k)
		if lhs <= rhs {
			return int64(k)
		}
	}
}

func lgammaPlus1(k float64) float64 {
	lg, _ := math.Lgamma(k + 1)
	return lg
}

// Categorical returns an index sampled according to the (unnormalized)
// non-negative weights w. It panics if all weights are zero.
func (r *Source) Categorical(w []float64) int {
	var total float64
	for _, wi := range w {
		if wi < 0 {
			panic("rng: negative categorical weight")
		}
		total += wi
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	u := r.Float64() * total
	var cum float64
	for i, wi := range w {
		cum += wi
		if u < cum {
			return i
		}
	}
	return len(w) - 1
}

// Gamma returns a sample from Gamma(shape k, scale theta) using
// Marsaglia-Tsang for k >= 1 and boosting for k < 1.
func (r *Source) Gamma(k, theta float64) float64 {
	if k <= 0 || theta <= 0 {
		panic("rng: Gamma requires positive parameters")
	}
	if k < 1 {
		// X ~ Gamma(k+1), U^(1/k) boost.
		u := r.Float64()
		return r.Gamma(k+1, theta) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * theta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * theta
		}
	}
}

// Dirichlet fills out with a sample from Dirichlet(alpha) and returns it.
func (r *Source) Dirichlet(out, alpha []float64) []float64 {
	if len(out) != len(alpha) {
		panic("rng: Dirichlet length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		g := r.Gamma(a, 1)
		out[i] = g
		sum += g
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	return r.PermInto(make([]int, n))
}

// PermInto fills p with a random permutation of [0, len(p)) and returns it,
// drawing the identical random stream as Perm of the same length, without
// allocating.
func (r *Source) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

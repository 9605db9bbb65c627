// Package mathx provides numeric helpers used throughout Celeste:
// numerically careful logistic/logit transforms, log-sum-exp, compensated
// summation, small statistical utilities, and ExpInto, which takes
// math.Exp of a whole slice in place with math.Exp's bits (four lanes at a
// time in assembly where math.Exp runs its amd64 FMA path). Everything here
// is pure and allocation-free unless documented otherwise.
package mathx

import "math"

// Logistic returns 1/(1+exp(-x)), computed to avoid overflow for large |x|.
func Logistic(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Logit returns log(p/(1-p)). It clamps p away from {0,1} by Eps to stay
// finite; callers that need exact behaviour should validate p themselves.
func Logit(p float64) float64 {
	p = Clamp(p, Eps, 1-Eps)
	return math.Log(p) - math.Log1p(-p)
}

// Eps is the clamping margin used by Logit and probability normalization.
const Eps = 1e-12

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// LogSumExp returns log(sum_i exp(x_i)) computed stably.
func LogSumExp(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var sum float64
	for _, v := range x {
		sum += math.Exp(v - m)
	}
	return m + math.Log(sum)
}

// Sum returns the Kahan-compensated sum of xs. Pixel log-likelihoods span
// many orders of magnitude, so naive summation loses digits that matter for
// Newton convergence checks.
func Sum(xs []float64) float64 {
	var s, c float64
	for _, x := range xs {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// Accumulator is a Kahan-compensated running sum.
type Accumulator struct {
	sum, comp float64
}

// Add accumulates x.
func (a *Accumulator) Add(x float64) {
	y := x - a.comp
	t := a.sum + y
	a.comp = (t - a.sum) - y
	a.sum = t
}

// Value returns the current compensated sum.
func (a *Accumulator) Value() float64 { return a.sum }

// NormalLogPDF returns the log density of N(mu, sigma^2) at x.
func NormalLogPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}

// KLCategorical returns KL(q || p) for probability vectors q, p.
func KLCategorical(q, p []float64) float64 {
	if len(q) != len(p) {
		panic("mathx: KLCategorical length mismatch")
	}
	var kl float64
	for i := range q {
		qi := Clamp(q[i], 0, 1)
		if qi <= 0 {
			continue
		}
		kl += qi * math.Log(qi/Clamp(p[i], Eps, 1))
	}
	return kl
}

// WrapAngle reduces an angle in radians to [0, pi). Galaxy orientation is
// identified under rotation by pi.
func WrapAngle(a float64) float64 {
	a = math.Mod(a, math.Pi)
	if a < 0 {
		a += math.Pi
	}
	return a
}

// AngleDistDeg returns the distance in degrees between two orientations,
// each identified modulo 180 degrees. The result is in [0, 90].
func AngleDistDeg(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 180)
	if d > 90 {
		d = 180 - d
	}
	return d
}

// MagFromFlux converts a flux in nanomaggies to an SDSS-style magnitude.
func MagFromFlux(nmgy float64) float64 {
	if nmgy <= 0 {
		return math.Inf(1)
	}
	return 22.5 - 2.5*math.Log10(nmgy)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for n < 2).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// StdErrOfMean returns the standard error of the mean of xs.
func StdErrOfMean(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(n))
}

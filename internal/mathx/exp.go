package mathx

import "math"

// ExpInto replaces each element of v with math.Exp(v[i]), to the bit.
//
// On amd64, where math.Exp runs its FMA path (math picks it at run time
// when the CPU has AVX and FMA3, and GODEBUG=cpu.fma=off turns it off),
// ExpInto runs the same path in assembly on four lanes at a time:
// Shibata's branch-free method, with the same range reduction, Horner
// polynomial and four squarings as math's scalar code and an ldexp that
// rounds as its does, so every lane returns math.Exp's bits, subnormal
// and underflowing results included. A group of four holding a NaN, +Inf or an argument whose
// result overflows goes to math.Exp instead. Elsewhere, and when math runs
// its plain path, ExpInto is a loop over math.Exp.
func ExpInto(v []float64) {
	if !expPacked {
		for i, x := range v {
			v[i] = math.Exp(x)
		}
		return
	}
	for len(v) >= 4 {
		n := expQuads(v)
		v = v[n:]
		if len(v) < 4 {
			break
		}
		for i, x := range v[:4] {
			v[i] = math.Exp(x)
		}
		v = v[4:]
	}
	if len(v) == 0 {
		return
	}
	var t [4]float64 // the tail, padded with exp(0)
	copy(t[:], v)
	if expQuads(t[:]) == 4 {
		copy(v, t[:])
		return
	}
	for i, x := range v {
		v[i] = math.Exp(x)
	}
}

// expPacked reports whether ExpInto runs the packed kernel: there is one
// for this GOARCH, and math.Exp runs the path it reproduces. math makes
// that choice at run time and does not export it, so a probe mirrors it:
// math.Exp must return expFMA's bits at every argument of expProbe.
var expPacked = haveExpQuads && expProbeMatches()

// expProbe holds arguments at which math.Exp's amd64 FMA path and its plain
// path (separate multiplies and adds) return different bits, spread from
// the last full-precision subnormal results near −708.9 to 708.9; either
// path's result at one of them tells the two apart. Deeper subnormal
// results keep too few bits for the paths to differ at a probe's cost.
var expProbe = [...]float64{
	-708.9000085068022, -708.5000049595017, -705.3000021159005, -650.1000585090214,
	-512.3000071722029, -300.4000021028009, -95.90000153440056, -20.060000160480055,
	-3.4900003036300937, -0.690000144210063, -0.04160000016640006, 0.7099999510099883,
	12.49999879999973, 100.19999899799974, 300.1, 708.9,
}

// expProbeMatches reports whether math.Exp returns expFMA's bits at every
// argument of expProbe.
func expProbeMatches() bool {
	for _, x := range expProbe {
		if math.Float64bits(math.Exp(x)) != math.Float64bits(expFMA(x)) {
			return false
		}
	}
	return true
}

// expFMA is math.Exp's amd64 FMA path (math/exp_amd64.s) in Go: the
// assembly's operations one by one, with math.FMA where it fuses and
// explicit conversions where it must not. The packed kernel runs the same
// operations; the probe compares this against math.Exp.
func expFMA(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	k := cvtsd2sl(float64(log2e * x))
	fk := float64(k)
	r := math.FMA(-fk, ln2u, x)
	r = math.FMA(-fk, ln2l, r)
	r = float64(r * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	} {
		p = math.FMA(p, r, c)
	}
	r = float64(r * p)
	for range 3 {
		r = float64(r * float64(r+2))
	}
	r = math.FMA(float64(r+2), r, 1)
	// ldexp: r·2^k, in two steps when the result is subnormal.
	e := int64(k) + 1023
	if e <= 0 {
		if e < -52 {
			return 0
		}
		r = float64(r * math.Float64frombits(uint64(e+1022)<<52))
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

// cvtsd2sl converts t to int32 as amd64's CVTSD2SL does under the default
// rounding mode: to nearest, ties to even, and math.MinInt32 (the "integer
// indefinite") for NaN and out-of-range values.
func cvtsd2sl(t float64) int32 {
	r := math.RoundToEven(t)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

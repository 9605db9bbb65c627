package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestLogisticLogitRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 10) // keep p away from {0,1} so the round trip is exact enough
		p := Logistic(x)
		return almostEq(Logit(p), x, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogisticExtremes(t *testing.T) {
	if got := Logistic(1000); got != 1 {
		t.Errorf("Logistic(1000) = %v, want 1", got)
	}
	if got := Logistic(-1000); got != 0 {
		t.Errorf("Logistic(-1000) = %v, want 0", got)
	}
	if got := Logistic(0); got != 0.5 {
		t.Errorf("Logistic(0) = %v, want 0.5", got)
	}
}

func TestLogSumExp(t *testing.T) {
	x := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got, want := LogSumExp(x), math.Log(6); !almostEq(got, want, 1e-12) {
		t.Errorf("LogSumExp = %v, want %v", got, want)
	}
	// Stability: huge values must not overflow.
	if got := LogSumExp([]float64{1000, 1000}); !almostEq(got, 1000+math.Log(2), 1e-12) {
		t.Errorf("LogSumExp large = %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
}

func TestKahanSum(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1e-12
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Kahan sum = %.18f, want %.18f", got, want)
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	if acc.Value() != got {
		t.Errorf("Accumulator disagrees with Sum: %v vs %v", acc.Value(), got)
	}
}

func TestNormalLogPDF(t *testing.T) {
	// Standard normal at 0: -0.5*log(2*pi).
	if got, want := NormalLogPDF(0, 0, 1), -0.5*math.Log(2*math.Pi); !almostEq(got, want, 1e-14) {
		t.Errorf("NormalLogPDF = %v, want %v", got, want)
	}
}

func TestKLCategorical(t *testing.T) {
	q := []float64{0.2, 0.3, 0.5}
	if got := KLCategorical(q, q); !almostEq(got, 0, 1e-12) {
		t.Errorf("KL(q||q) = %v, want 0", got)
	}
	p := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if got := KLCategorical(q, p); got <= 0 {
		t.Errorf("KL(q||p) = %v, want > 0", got)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, 0},
		{-0.1, math.Pi - 0.1},
		{3 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDistDeg(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, 180, 0},
		{10, 170, 20},
		{0, 90, 90},
		{45, 225, 0},
	}
	for _, c := range cases {
		if got := AngleDistDeg(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("AngleDistDeg(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMagFluxRoundTrip(t *testing.T) {
	f := func(mag float64) bool {
		mag = 15 + math.Mod(mag, 10) // realistic magnitude range
		return almostEq(MagFromFlux(math.Pow(10, (22.5-mag)/2.5)), mag, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !math.IsInf(MagFromFlux(0), 1) {
		t.Error("MagFromFlux(0) should be +Inf")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEq(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := StdDev([]float64{1}); got != 0 {
		t.Errorf("StdDev single = %v, want 0", got)
	}
}

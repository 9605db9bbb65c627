package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical outputs of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling streams share %d of 1000 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(2)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		// Expected 10000 per bucket; allow 5 sigma of binomial noise.
		if math.Abs(float64(c)-10000) > 5*math.Sqrt(10000) {
			t.Errorf("bucket %d count %d deviates from uniform", i, c)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum, sumsq, sumcube float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumsq += x * x
		sumcube += x * x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	skew := sumcube / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Errorf("normal skewness = %v", skew)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(4)
	for _, lambda := range []float64{0.5, 3, 29, 31, 100, 1000} {
		const n = 50000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(lambda))
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		// Mean and variance of Poisson are both lambda. Tolerance: 5 sigma
		// of the sampling error of the mean.
		tol := 5 * math.Sqrt(lambda/n)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("lambda=%v: mean = %v (tol %v)", lambda, mean, tol)
		}
		if math.Abs(variance-lambda) > 0.1*lambda {
			t.Errorf("lambda=%v: variance = %v", lambda, variance)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(5)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d", got)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(6)
	w := []float64{1, 2, 3, 4}
	counts := make([]float64, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, wi := range w {
		want := wi / 10 * n
		if math.Abs(counts[i]-want) > 5*math.Sqrt(want) {
			t.Errorf("category %d: count %v, want ~%v", i, counts[i], want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(7)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero weights")
		}
	}()
	r.Categorical([]float64{0, 0})
}

func TestGammaMoments(t *testing.T) {
	r := New(8)
	for _, tc := range []struct{ k, theta float64 }{{0.5, 1}, {2, 3}, {9, 0.5}} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Gamma(tc.k, tc.theta)
		}
		mean := sum / n
		want := tc.k * tc.theta
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("Gamma(%v,%v): mean = %v, want %v", tc.k, tc.theta, mean, want)
		}
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(9)
	alpha := []float64{1, 2, 3}
	out := make([]float64, 3)
	for i := 0; i < 100; i++ {
		r.Dirichlet(out, alpha)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("negative Dirichlet component %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("Dirichlet sum = %v", sum)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal()
	}
	_ = sink
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += r.Poisson(500)
	}
	_ = sink
}

package linalg

import (
	"math"
	"testing"

	"celeste/internal/rng"
)

// randSPD builds a random symmetric positive definite n x n matrix.
func randSPD(r *rng.Source, n int) *Mat {
	b := NewMat(n, n)
	for i := range b.Data {
		b.Data[i] = r.Normal()
	}
	a := Mul(b, b.Transpose())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n)) // ensure well-conditioned
	}
	return a
}

func maxAbsDiff(a, b *Mat) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 5, 13, 44} {
		a := randSPD(r, n)
		l := NewMat(n, n)
		if err := Cholesky(l, a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := Mul(l, l.Transpose())
		if d := maxAbsDiff(a, recon); d > 1e-9*float64(n) {
			t.Errorf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestCholeskyInPlace(t *testing.T) {
	r := rng.New(2)
	a := randSPD(r, 7)
	orig := a.Clone()
	if err := Cholesky(a, a); err != nil {
		t.Fatal(err)
	}
	recon := Mul(a, a.Transpose())
	if d := maxAbsDiff(orig, recon); d > 1e-9 {
		t.Errorf("in-place reconstruction error %v", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMat(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	l := NewMat(2, 2)
	if err := Cholesky(l, a); err != ErrNotPositiveDefinite {
		t.Errorf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestSolveCholesky(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 4, 20, 44} {
		a := randSPD(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Normal()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		l := NewMat(n, n)
		if err := Cholesky(l, a); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		SolveCholesky(l, x, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

// TestSolveLower: forward substitution inverts the Cholesky factor itself,
// L y = x, which the trust-region solver's Newton step on λ needs alone.
func TestSolveLower(t *testing.T) {
	r := rng.New(7)
	n := 13
	l := NewMat(n, n)
	if err := Cholesky(l, randSPD(r, n)); err != nil {
		t.Fatal(err)
	}
	yTrue := make([]float64, n)
	for i := range yTrue {
		yTrue[i] = r.Normal()
	}
	x := make([]float64, n)
	l.MulVec(x, yTrue)
	SolveLower(l, x)
	for i := range x {
		if math.Abs(x[i]-yTrue[i]) > 1e-10 {
			t.Fatalf("y[%d] = %v, want %v", i, x[i], yTrue[i])
		}
	}
}

func TestSymMulVecMatchesFull(t *testing.T) {
	r := rng.New(6)
	n := 9
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Normal()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Normal()
	}
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	a.MulVec(y1, x)
	SymMulVec(a, y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
	if q, want := QuadForm(a, x), Dot(x, y1); math.Abs(q-want) > 1e-10 {
		t.Errorf("QuadForm = %v, want %v", q, want)
	}
}

func TestNorm2Overflow(t *testing.T) {
	x := []float64{1e300, 1e300}
	want := 1e300 * math.Sqrt2
	if got := Norm2(x); math.Abs(got-want)/want > 1e-14 {
		t.Errorf("Norm2 overflow-safe = %v, want %v", got, want)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v", got)
	}
}

func BenchmarkCholesky28(b *testing.B) {
	r := rng.New(1)
	a := randSPD(r, 28)
	l := NewMat(28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Cholesky(l, a); err != nil {
			b.Fatal(err)
		}
	}
}

package linalg

import (
	"math"
	"testing"
	"testing/quick"

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

// eigenSym runs EigenSymInto on freshly allocated storage.
func eigenSym(a *Mat) (w []float64, v *Mat, err error) {
	n := a.Rows
	w = make([]float64, n)
	v = NewMat(n, n)
	if err := EigenSymInto(a, w, v, make([]float64, n)); err != nil {
		return nil, nil, err
	}
	return w, v, nil
}

func TestEigenSymReconstruction(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{1, 2, 3, 10, 44} {
		// Random symmetric (not necessarily definite) matrix.
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := r.Normal()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		w, v, err := eigenSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Check ascending order.
		for i := 1; i < n; i++ {
			if w[i] < w[i-1] {
				t.Fatalf("n=%d: eigenvalues not sorted: %v", n, w)
			}
		}
		// Check A v_i = w_i v_i column by column.
		for i := 0; i < n; i++ {
			col := make([]float64, n)
			for k := 0; k < n; k++ {
				col[k] = v.At(k, i)
			}
			av := make([]float64, n)
			a.MulVec(av, col)
			for k := 0; k < n; k++ {
				if math.Abs(av[k]-w[i]*col[k]) > 1e-8*float64(n) {
					t.Fatalf("n=%d: eigenpair %d violated at row %d: %v vs %v",
						n, i, k, av[k], w[i]*col[k])
				}
			}
		}
		// Orthonormality of V.
		vtv := Mul(v.Transpose(), v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9*float64(n) {
					t.Fatalf("n=%d: VtV[%d,%d] = %v", n, i, j, vtv.At(i, j))
				}
			}
		}
	}
}

func TestEigenSymKnownValues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewMat(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	w, _, err := eigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1) > 1e-12 || math.Abs(w[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [1 3]", w)
	}
}

func TestEigenTraceAndDetInvariants(t *testing.T) {
	// Property: sum of eigenvalues = trace; product = determinant (via
	// Cholesky for SPD input).
	r := rng.New(5)
	f := func(seed uint64) bool {
		src := rng.New(seed%1000 + 1)
		n := 3 + int(seed%5)
		a := randSPD(src, n)
		w, _, err := eigenSym(a)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += w[i]
		}
		if math.Abs(trace-sum) > 1e-8*math.Abs(trace) {
			return false
		}
		l := NewMat(n, n)
		if err := Cholesky(l, a); err != nil {
			return false
		}
		logDetChol := 0.0
		for i := 0; i < n; i++ {
			logDetChol += 2 * math.Log(l.At(i, i))
		}
		logDetEig := 0.0
		for i := 0; i < n; i++ {
			logDetEig += math.Log(w[i])
		}
		return math.Abs(logDetChol-logDetEig) < 1e-8*(1+math.Abs(logDetChol))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = r
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

func BenchmarkCholesky44(b *testing.B) {
	r := rng.New(1)
	a := randSPD(r, 44)
	l := NewMat(44, 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Cholesky(l, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym44(b *testing.B) {
	r := rng.New(1)
	a := randSPD(r, 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}

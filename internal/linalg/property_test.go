package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"celeste/internal/rng"
)

// TestCholeskyAndEigenSolversAgree cross-checks the two factorization paths
// used by the trust-region solver on random SPD systems.
func TestCholeskyAndEigenSolversAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed%1000 + 1)
		n := 2 + int(seed%10)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Normal()
		}
		// Cholesky solve.
		l := NewMat(n, n)
		if err := Cholesky(l, a); err != nil {
			return false
		}
		x1 := make([]float64, n)
		SolveCholesky(l, x1, b)
		// Eigen solve: x = V diag(1/w) Vᵀ b.
		w, v, err := eigenSym(a)
		if err != nil {
			return false
		}
		x2 := make([]float64, n)
		for j := 0; j < n; j++ {
			var vb float64
			for i := 0; i < n; i++ {
				vb += v.At(i, j) * b[i]
			}
			coef := vb / w[j]
			for i := 0; i < n; i++ {
				x2[i] += coef * v.At(i, j)
			}
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7*(1+math.Abs(x1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEigenSymDiagonalMatrix(t *testing.T) {
	n := 6
	a := NewMat(n, n)
	want := []float64{-3, -1, 0, 2, 5, 9}
	// Fill the diagonal in scrambled order.
	perm := []int{3, 0, 5, 1, 4, 2}
	for i, p := range perm {
		a.Set(i, i, want[p])
	}
	w, v, err := eigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("eigenvalue %d = %v, want %v", i, w[i], want[i])
		}
	}
	// Eigenvectors are (signed) unit basis vectors.
	for j := 0; j < n; j++ {
		var nonzero int
		for i := 0; i < n; i++ {
			if math.Abs(v.At(i, j)) > 1e-9 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Errorf("eigenvector %d not axis-aligned", j)
		}
	}
}

func TestEigenSymRejectsNaN(t *testing.T) {
	a := NewMat(3, 3)
	a.Set(1, 1, math.NaN())
	if _, _, err := eigenSym(a); err == nil {
		t.Error("expected error for NaN input")
	}
	a = NewMat(3, 3)
	a.Set(2, 0, math.Inf(1))
	if _, _, err := eigenSym(a); err == nil {
		t.Error("expected error for Inf input")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed%997 + 3)
		n := 1 + int(seed%7)
		m := 1 + int((seed/7)%7)
		a := NewMat(n, m)
		for i := range a.Data {
			a.Data[i] = r.Normal()
		}
		x := make([]float64, m)
		for i := range x {
			x[i] = r.Normal()
		}
		// y via MulVec.
		y := make([]float64, n)
		a.MulVec(y, x)
		// y via Mul with an m x 1 matrix.
		xm := NewMat(m, 1)
		copy(xm.Data, x)
		ym := Mul(a, xm)
		for i := 0; i < n; i++ {
			if math.Abs(y[i]-ym.At(i, 0)) > 1e-12*(1+math.Abs(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(4)
	a := NewMat(5, 3)
	for i := range a.Data {
		a.Data[i] = r.Normal()
	}
	tt := a.Transpose().Transpose()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("transpose not an involution")
		}
	}
}

package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"celeste/internal/rng"
)

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

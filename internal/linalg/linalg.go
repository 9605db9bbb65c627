// Package linalg implements the dense linear algebra Celeste's trust-region
// Newton optimizer needs: Cholesky factorization, triangular solves, and
// small-matrix helpers, written against the standard library only. The paper
// notes that each Newton iteration "computes an eigen decomposition, as well
// as several Cholesky factorizations" (Section VI-B); the optimizer here
// solves its trust-region subproblem with Cholesky factorizations alone.
//
// Matrices are dense, row-major, and small (the hot case is 27x27, one light
// source's parameter block), so we favor clarity and cache-friendly loops
// over blocked algorithms.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments the element at (i, j) by v.
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; dimensions must match.
func (m *Mat) CopyFrom(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .4e ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// MulVec computes y = m * x. y must have length m.Rows and must not alias x.
func (m *Mat) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, r := range row {
			s += r * x[j]
		}
		y[i] = s
	}
}

// Mul computes C = A * B into a freshly allocated matrix.
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic("linalg: Mul dimension mismatch")
	}
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			crow := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j, bv := range brow {
				crow[j] += aik * bv
			}
		}
	}
	return c
}

// Transpose returns a new matrix equal to m's transpose.
func (m *Mat) Transpose() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, xi := range x {
		y[i] += alpha * xi
	}
}

// ErrNotPositiveDefinite reports a Cholesky failure.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive definite A (only the lower triangle of A is read).
// The factor is written into l, which may alias a. It returns
// ErrNotPositiveDefinite if a pivot is not strictly positive.
func Cholesky(l, a *Mat) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		panic("linalg: Cholesky requires square matrices of equal size")
	}
	if l != a {
		l.CopyFrom(a)
	}
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			lrow := l.Data[i*n:]
			jrow := l.Data[j*n:]
			for k := 0; k < j; k++ {
				s -= lrow[k] * jrow[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	// Zero the strict upper triangle so L is a clean lower factor.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	return nil
}

// SolveCholesky solves A x = b given the lower Cholesky factor L of A,
// writing the solution into x (which may alias b).
func SolveCholesky(l *Mat, x, b []float64) {
	n := l.Rows
	if len(b) != n || len(x) != n {
		panic("linalg: SolveCholesky dimension mismatch")
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	SolveLower(l, x)
	// Back solve Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// SolveLower solves L y = x in place for the lower-triangular l (forward
// substitution), reading only l's lower triangle.
func SolveLower(l *Mat, x []float64) {
	n := l.Rows
	if len(x) != n {
		panic("linalg: SolveLower dimension mismatch")
	}
	for i := 0; i < n; i++ {
		s := x[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// SymMulVec computes y = A x reading only the lower triangle of the
// symmetric matrix a.
func SymMulVec(a *Mat, y, x []float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		y[i] = 0
	}
	for i := 0; i < n; i++ {
		row := a.Data[i*a.Cols:]
		yi := y[i]
		xi := x[i]
		for j := 0; j < i; j++ {
			yi += row[j] * x[j]
			y[j] += row[j] * xi
		}
		y[i] = yi + row[i]*xi
	}
}

// QuadForm returns xᵀ A x reading only the lower triangle of symmetric a.
func QuadForm(a *Mat, x []float64) float64 {
	n := a.Rows
	var q float64
	for i := 0; i < n; i++ {
		row := a.Data[i*a.Cols:]
		xi := x[i]
		q += row[i] * xi * xi
		for j := 0; j < i; j++ {
			q += 2 * row[j] * x[j] * xi
		}
	}
	return q
}

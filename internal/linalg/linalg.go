// Package linalg implements the dense linear algebra Celeste's trust-region
// Newton optimizer needs: Cholesky factorization, symmetric eigendecomposition
// (Householder tridiagonalization followed by implicit-shift QL), triangular
// solves, and small-matrix helpers. The paper notes that each Newton iteration
// "computes an eigen decomposition, as well as several Cholesky
// factorizations" (Section VI-B); this package is that substrate, written
// against the standard library only.
//
// Matrices are dense, row-major, and small (the hot case is 44x44, one light
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
	// Forward solve L y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back solve Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// SolveLowerTriangular solves L y = b for lower-triangular L, writing into y
// (which may alias b).
func SolveLowerTriangular(l *Mat, y, b []float64) {
	n := l.Rows
	if &y[0] != &b[0] {
		copy(y, b)
	}
	for i := 0; i < n; i++ {
		s := y[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
}

// EigenSymInto computes the full eigendecomposition of the symmetric matrix
// a into caller-owned storage: a = V diag(w) Vᵀ with eigenvalues into w (len
// n, ascending) and eigenvectors into the columns of v (n x n), with e (len
// n) as subdiagonal scratch. Only the lower triangle of a is read. It
// allocates nothing, so a reused workspace makes repeated decompositions
// allocation-free. It returns an error for non-finite input or if the QL
// iteration fails to converge (essentially impossible for finite input).
func EigenSymInto(a *Mat, w []float64, v *Mat, e []float64) error {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: EigenSymInto requires a square matrix")
	}
	if len(w) != n || v.Rows != n || v.Cols != n || len(e) != n {
		panic("linalg: EigenSymInto storage size mismatch")
	}
	// Symmetrize into v from the lower triangle, rejecting non-finite input
	// (the QL iteration would otherwise scan past its bounds chasing NaNs).
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			x := a.At(i, j)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return errors.New("linalg: non-finite matrix entry")
			}
			v.Set(i, j, x)
			v.Set(j, i, x)
		}
	}
	tred2(v, w, e)
	return tql2(v, w, e)
}

// tred2 reduces the symmetric matrix stored in v to tridiagonal form using
// Householder reflections, accumulating the orthogonal transform in v.
// On return d holds the diagonal and e the subdiagonal (e[0] = 0).
// This follows the classic EISPACK/JAMA formulation.
func tred2(v *Mat, d, e []float64) {
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v.Add(k, j, -(f*e[k] + g*d[k]))
				}
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Add(k, j, -g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) with implicit-
// shift QL iterations, accumulating eigenvectors into v. Eigenvalues are
// sorted ascending with their vectors.
func tql2(v *Mat, d, e []float64) error {
	n := v.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Nextafter(1, 2) - 1
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 60 {
					return errors.New("linalg: eigen QL iteration failed to converge")
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					for k := 0; k < n; k++ {
						h = v.At(k, i+1)
						v.Set(k, i+1, s*v.At(k, i)+c*h)
						v.Set(k, i, c*v.At(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	// Sort eigenvalues ascending, permuting vectors alongside.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			for j := 0; j < n; j++ {
				tmp := v.At(j, i)
				v.Set(j, i, v.At(j, k))
				v.Set(j, k, tmp)
			}
		}
	}
	return nil
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

// Inverse2x2 inverts [[a,b],[c,d]] returning the inverse entries and the
// determinant. It panics on singular input.
func Inverse2x2(a, b, c, d float64) (ia, ib, ic, id, det float64) {
	det = a*d - b*c
	if det == 0 {
		panic("linalg: singular 2x2 matrix")
	}
	inv := 1 / det
	return d * inv, -b * inv, -c * inv, a * inv, det
}

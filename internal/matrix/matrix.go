// Package matrix implements the dense linear algebra the library needs:
// row-major float64 matrices, multiplication, orthogonalization, a symmetric
// eigensolver (Householder tridiagonalization followed by implicit-shift QL
// iteration), and a thin SVD built on the eigensolver. PCA rotations
// (DDCres/DDCpca), random orthogonal rotations (ADSampling) and the OPQ
// Procrustes step are all built on this package.
//
// Matrices are float64 for numerical robustness while a rotation is being
// trained; the data plane holds the finished rotation as a float32
// store.Matrix (see F32) and applies it with vec.MatVec.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"resinfer/internal/par"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New returns a zero matrix with the given shape. It panics on non-positive
// dimensions, which always indicate a programming error.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: FromRows needs non-empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("matrix: row %d has %d cols, want %d", i, len(r), m.Cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Mul returns a*b. The inner dimensions must agree.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matrix: Mul shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	// ikj loop order keeps the inner loop streaming over contiguous rows.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out, nil
}

// F32 narrows m to the float32 row-major form the data plane applies with
// vec.MatVec. Training (covariance, eigensolver, Gram-Schmidt, Procrustes)
// runs in float64; a finished rotation is narrowed once, here.
func (m *Matrix) F32() *store.Matrix {
	flat := make([]float32, len(m.Data))
	for i, v := range m.Data {
		flat[i] = float32(v)
	}
	out, err := store.FromFlat(flat, m.Rows, m.Cols)
	if err != nil {
		panic(err) // New rejects the empty shapes FromFlat would
	}
	return out
}

// RotateRows writes rot·row into the same row of dst for every row of src,
// split across GOMAXPROCS goroutines: the n·D² loop that rotates a data set
// once a rotation is finished. rot must be src.Dim() x src.Dim() and dst
// shaped like src.
func RotateRows(dst, rot, src *store.Matrix) {
	dim := src.Dim()
	par.Range(src.Rows(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vec.MatVec(dst.Row(i), rot.Flat(), dim, src.Row(i))
		}
	})
}

// IsOrthonormal reports whether m's rows are orthonormal within tol.
func (m *Matrix) IsOrthonormal(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := i; j < m.Rows; j++ {
			rj := m.Row(j)
			var dot float64
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > tol {
				return false
			}
		}
	}
	return true
}

// RandomOrthogonal returns a uniformly distributed n x n orthogonal matrix
// (Haar measure), generated by Gram-Schmidt orthonormalization of a
// Gaussian matrix. ADSampling's random rotation uses this.
func RandomOrthogonal(n int, rng *rand.Rand) *Matrix {
	for {
		m := New(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		if err := GramSchmidt(m); err == nil {
			return m
		}
		// Degenerate draw (measure zero, but guard anyway): retry.
	}
}

// GramSchmidt orthonormalizes the rows of m in place using the modified
// Gram-Schmidt procedure. It returns an error if the rows are numerically
// rank-deficient.
func GramSchmidt(m *Matrix) error {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := 0; j < i; j++ {
			rj := m.Row(j)
			var dot float64
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			for k := range ri {
				ri[k] -= dot * rj[k]
			}
		}
		var norm float64
		for _, v := range ri {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			return errors.New("matrix: rank-deficient input to GramSchmidt")
		}
		for k := range ri {
			ri[k] /= norm
		}
	}
	return nil
}

// covBlock is how many data rows Covariance folds into a row of the output
// per pass over it: the row is read and written once per covBlock data
// rows, not once per data row. 8 and 16 measured no faster.
const covBlock = 4

// accumulateOuter adds rows [from, to) of the upper triangle of c·cᵀ to cov
// for every centred row c held in blk (c number r at blk[r·d:]), using coef
// and rows (covBlock long) as scratch. Element (i, j) gets c[i]·c[j] one c
// at a time in blk's order, as a loop over the c's would add it, and a c
// whose c[i] is zero adds nothing to row i.
func accumulateOuter(cov *Matrix, blk []float64, from, to int, coef []float64, rows [][]float64) {
	d := cov.Cols
	for i := from; i < to; i++ {
		k := 0
		for r := 0; r < len(blk); r += d {
			if ci := blk[r+i]; ci != 0 {
				coef[k], rows[k] = ci, blk[r+i:r+d]
				k++
			}
		}
		vec.AxpyRows64(cov.Row(i)[i:], coef[:k], rows[:k])
	}
}

// Covariance returns the D x D covariance matrix (population covariance,
// mean removed) of the rows of the given matrices, along with the mean
// vector. Rows are visited matrix by matrix in argument order, so the result
// is that of the one matrix holding them all, bit for bit.
func Covariance(data ...*store.Matrix) (*Matrix, []float64, error) {
	if len(data) == 0 || data[0] == nil {
		return nil, nil, errors.New("matrix: Covariance needs non-empty data")
	}
	n, d := 0, data[0].Dim()
	mean := make([]float64, d)
	for _, m := range data {
		if m == nil || m.Dim() != d {
			return nil, nil, errors.New("matrix: ragged data in Covariance")
		}
		n += m.Rows()
		for i := 0; i < m.Rows(); i++ {
			for j, v := range m.Row(i) {
				mean[j] += float64(v)
			}
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov := New(d, d)
	// The n·D²/2 accumulation is split by output row, not by data row:
	// every worker walks the data in order and owns some rows of cov, so
	// each element is summed in the same order for any worker count. Row i
	// of the upper triangle holds d−i elements; a unit of the split is row
	// i together with row d−1−i, d+1 elements whichever i. Data rows are
	// centred covBlock at a time, and each block is folded into an owned
	// row in one pass over it.
	half := (d + 1) / 2
	par.Range(half, 0, func(lo, hi int) {
		blk := make([]float64, 0, covBlock*d)
		coef := make([]float64, covBlock)
		rows := make([][]float64, covBlock)
		flush := func() {
			accumulateOuter(cov, blk, lo, hi, coef, rows)
			accumulateOuter(cov, blk, max(d-hi, half), d-lo, coef, rows)
			blk = blk[:0]
		}
		for _, m := range data {
			for i := 0; i < m.Rows(); i++ {
				for j, v := range m.Row(i) {
					blk = append(blk, float64(v)-mean[j])
				}
				if len(blk) == cap(blk) {
					flush()
				}
			}
		}
		flush()
	})
	inv := 1 / float64(n)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := cov.At(i, j) * inv
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov, mean, nil
}

package matrix

import (
	"errors"
	"math"
	"sort"

	"resinfer/internal/vec"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix a,
// returning eigenvalues in descending order and the corresponding
// eigenvectors as the ROWS of the returned matrix (so the result is
// directly usable as a rotation: y = V * x projects x onto the
// eigenbasis, with row 0 the leading principal direction).
//
// The implementation is the classic two-stage dense symmetric solver:
// Householder reduction to tridiagonal form followed by implicit-shift QL
// iteration, O(n^3) overall. Every loop that sweeps the matrix runs along
// rows, through the float64 row kernels of package vec, while each scalar
// operation keeps the order of the textbook column-wise loops, so the
// result is theirs bit for bit. On one core of a two-core AVX2 Xeon it
// takes 42 ms at n = 420 and 0.50 s at n = 960.
func EigenSym(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("matrix: EigenSym needs a square matrix")
	}
	n := a.Rows
	// Work on a copy; z accumulates the orthogonal transform.
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e)
	// The transform's columns are the eigenvector candidates, and QL
	// rotates pairs of them: hold them as rows from here on.
	z = z.T()
	if err := tqli(d, e, z); err != nil {
		return nil, nil, err
	}
	// Sort descending by eigenvalue; z's rows are the eigenvectors.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	vals = make([]float64, n)
	vecs = New(n, n)
	for r, k := range idx {
		vals[r] = d[k]
		copy(vecs.Row(r), z.Row(k))
	}
	return vals, vecs, nil
}

// tred2 reduces the symmetric matrix held in z to tridiagonal form,
// accumulating the transformation in z (its columns). On return d holds
// the diagonal and e the subdiagonal (e[0] unused). Adapted from the
// standard Householder algorithm (Numerical Recipes §11.2 / EISPACK
// TRED2), with its column sweeps turned into row sweeps that leave every
// element's sum in the textbook order.
func tred2(z *Matrix, d, e []float64) {
	n := z.Rows
	coef := make([]float64, 2)
	rows := make([][]float64, 2)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := z.Row(i)[:i] // the row being reduced, u once scaled
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(zi[k])
			}
			if scale == 0 {
				e[i] = zi[l]
			} else {
				for k := 0; k <= l; k++ {
					zi[k] /= scale
					h += zi[k] * zi[k]
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				// e = A·u over the lower triangle: element j sums its row
				// part k ≤ j, then its column part k > j, k ascending. So
				// row k, read once, starts element k with its dot product
				// and adds its column terms to the elements before it.
				for k := 0; k <= l; k++ {
					zk := z.Row(k)[:k+1]
					g = 0
					for m, v := range zk {
						g += v * zi[m]
					}
					e[k] = g
					coef[0], rows[0] = zi[k], zk
					vec.AxpyRows64(e[:k], coef[:1], rows[:1])
				}
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, zi[j]/h)
					e[j] /= h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				rows[0], rows[1] = e, zi
				for j := 0; j <= l; j++ {
					f = zi[j]
					g = e[j] - hh*f
					e[j] = g
					// z[j][k] = z[j][k] - f·e[k] - g·u[k] for k ≤ j.
					coef[0], coef[1] = -f, -g
					vec.AxpyRows64(z.Row(j)[:j+1], coef, rows)
				}
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	// Accumulate the transform. Step i applies I − (u/h)·uᵀ to the leading
	// i × i block Q, with u in row i and u/h in column i where the
	// reduction left them: g = uᵀ·Q, then Q −= (u/h)·g, both one row of Q
	// at a time. Every g[j] is complete before column j changes, as in the
	// column-at-a-time loop.
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		if d[i] != 0 {
			gi := g[:i]
			clear(gi)
			ui := z.Row(i)
			for k := 0; k < i; k++ {
				coef[0], rows[0] = ui[k], z.Row(k)
				vec.AxpyRows64(gi, coef[:1], rows[:1])
			}
			rows[0] = g
			for k := 0; k < i; k++ {
				zk := z.Row(k)
				coef[0] = -zk[i]
				vec.AxpyRows64(zk[:i], coef[:1], rows[:1])
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j < i; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// tqli performs implicit-shift QL iteration on the tridiagonal matrix
// (d, e), updating the eigenvector accumulator z, whose ROWS are the
// vectors being rotated. Eigenvalues land in d.
// The off-diagonal deflation test uses a relative tolerance rather than
// exact float64 rounding — the classic formulation compares in single
// precision for the same reason; demanding full double-precision
// cancellation can spin past any iteration cap on large matrices.
func tqli(d, e []float64, z *Matrix) error {
	const tol = 1e-14
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	// Absolute deflation floor: covariance spectra can span dozens of
	// orders of magnitude (strongly decayed variance profiles), in which
	// case a purely relative test on the tiny tail diagonal entries never
	// fires. Off-diagonals below tol·‖T‖ are numerically zero at the
	// matrix's dominant scale.
	var anorm float64
	for i := 0; i < n; i++ {
		if v := math.Abs(d[i]) + math.Abs(e[i]); v > anorm {
			anorm = v
		}
	}
	floor := tol * anorm
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter >= 100 {
				return errors.New("matrix: tqli failed to converge")
			}
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= tol*dd || math.Abs(e[m]) <= floor {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			broke := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					broke = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				vec.Rot64(z.Row(i), z.Row(i+1), c, s)
			}
			if broke {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// SVDSquare computes the singular value decomposition A = U diag(s) V^T of
// a square matrix, via the eigendecomposition of A^T A. Singular values are
// returned in descending order; U and V have the singular vectors as
// COLUMNS. Singular values below rankTol times the largest are treated as
// zero and their U columns are completed to an orthonormal basis.
//
// The OPQ Procrustes step needs exactly this: R = U V^T minimizes
// ||X R - Y||_F over orthogonal R when A = X^T Y.
func SVDSquare(a *Matrix) (u *Matrix, s []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, nil, errors.New("matrix: SVDSquare needs a square matrix")
	}
	n := a.Rows
	at := a.T()
	ata, err := Mul(at, a)
	if err != nil {
		return nil, nil, nil, err
	}
	evals, evecsRows, err := EigenSym(ata)
	if err != nil {
		return nil, nil, nil, err
	}
	s = make([]float64, n)
	v = evecsRows.T() // columns are eigenvectors of A^T A = right singular vectors
	for i := range evals {
		if evals[i] < 0 {
			evals[i] = 0 // clamp tiny negative rounding
		}
		s[i] = math.Sqrt(evals[i])
	}
	const rankTol = 1e-10
	u = New(n, n)
	smax := s[0]
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		if smax > 0 && s[j] > rankTol*smax {
			// u_j = A v_j / s_j, v_j being row j of evecsRows.
			vj := evecsRows.Row(j)
			for i := 0; i < n; i++ {
				var acc float64
				arow := a.Row(i)
				for k := 0; k < n; k++ {
					acc += arow[k] * vj[k]
				}
				col[i] = acc / s[j]
			}
		} else {
			// Null direction: fill with a basis vector; fixed below by
			// re-orthonormalizing U's columns.
			for i := range col {
				col[i] = 0
			}
			col[j%n] = 1
		}
		for i := 0; i < n; i++ {
			u.Set(i, j, col[i])
		}
	}
	// Re-orthonormalize U's columns (cheap, and handles the null-space
	// completion above). Work on the transpose so GramSchmidt sees rows.
	ut := u.T()
	if err := GramSchmidt(ut); err != nil {
		return nil, nil, nil, err
	}
	u = ut.T()
	return u, s, v, nil
}

// Procrustes returns the orthogonal matrix R (d x d) minimizing
// ||X R^T - Y||_F given the cross-covariance C = Σ x_i y_i^T, i.e.
// R = V U^T where C = U diag(s) V^T. In OPQ's alternating optimization, X
// holds data rows and Y the decoded (reconstructed) rows.
func Procrustes(crossCov *Matrix) (*Matrix, error) {
	u, _, v, err := SVDSquare(crossCov)
	if err != nil {
		return nil, err
	}
	return Mul(v, u.T())
}

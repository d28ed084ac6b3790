package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"resinfer/internal/par"
	"resinfer/internal/raceguard"
	"resinfer/internal/store"
)

// The covariance and eigensolver sweep their matrices along rows, through
// the float64 kernels of package vec; the reference below is the
// column-wise code they replaced, kept verbatim (only renamed). The tests
// hold the two to the same bits — covariance, eigenvalues, eigenvectors and
// Procrustes rotations — on every dispatch path (CI runs this package
// under -tags noasm too) and at any GOMAXPROCS.

// referenceDims are the dimensions the differential tests cover: the
// degenerate ones, the kernels' block boundaries, and the widths of the
// paper's data sets (msong 420, gist 960).
var referenceDims = []int{1, 2, 3, 7, 64, 420, 960}

// referenceData is one named input set of the differential tests.
type referenceData struct {
	name string
	data *store.Matrix
}

// referenceSets builds, for every dimension, rows with a decaying spectrum
// and a non-zero mean, plus at D ≥ 7 the same rows with two columns held
// constant (zero covariance rows: the covariance skips them, the
// reduction meets scale == 0) and a rank-deficient set of fewer rows than
// dimensions. Row counts are never a multiple of the covariance block.
func referenceSets() []referenceData {
	r := rand.New(rand.NewSource(29))
	rows := func(n, d int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = make([]float32, d)
			for j := range out[i] {
				out[i][j] = float32(math.Pow(0.97, float64(j))*r.NormFloat64()) + float32(j%5)
			}
		}
		return out
	}
	var sets []referenceData
	for _, d := range referenceDims {
		n := min(2*d+3, 203)
		full := rows(n, d)
		sets = append(sets, referenceData{fmt.Sprintf("D=%d", d), store.MustFromRows(full)})
		if d < 7 {
			continue
		}
		for _, row := range full {
			row[3], row[d-1] = 2.5, -1
		}
		sets = append(sets,
			referenceData{fmt.Sprintf("D=%d zero columns", d), store.MustFromRows(full)},
			referenceData{fmt.Sprintf("D=%d rank-deficient", d), store.MustFromRows(rows(d/2+1, d))})
	}
	return sets
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// atProcs runs f once at each GOMAXPROCS the differential tests cover.
func atProcs(t *testing.T, f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

func TestCovarianceMatchesReference(t *testing.T) {
	for _, set := range referenceSets() {
		want, wantMean, err := refCovariance(set.data)
		if err != nil {
			t.Fatal(err)
		}
		atProcs(t, func(procs int) {
			got, mean, err := Covariance(set.data)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.Data, want.Data) || !sameBits(mean, wantMean) {
				t.Errorf("%s, GOMAXPROCS %d: covariance differs from the reference", set.name, procs)
			}
		})
	}
}

// TestEigenSymMatchesReference decomposes the covariance of every
// reference set, and two matrices with repeated eigenvalues: 2I + J (all
// ones), whose eigenvalue 2 repeats exactly, and Q·diag·Qᵀ with each
// eigenvalue repeated four times up to rounding, so that sorting meets
// near-ties.
func TestEigenSymMatchesReference(t *testing.T) {
	type input struct {
		name string
		a    *Matrix
	}
	var inputs []input
	for _, set := range referenceSets() {
		if raceguard.Enabled && set.data.Dim() > 420 {
			continue // the strided reference alone takes minutes under -race
		}
		cov, _, err := refCovariance(set.data)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{set.name + " covariance", cov})
	}
	r := rand.New(rand.NewSource(30))
	for _, d := range []int{7, 64} {
		a := New(d, d)
		for i := range a.Data {
			a.Data[i] = 1
		}
		for i := 0; i < d; i++ {
			a.Set(i, i, 3)
		}
		q := RandomOrthogonal(d, r)
		qd := q.Clone()
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				qd.Set(i, j, q.At(i, j)*float64(1+j/4))
			}
		}
		b, err := Mul(qd, q.T())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d; i++ { // exactly symmetric
			for j := 0; j < i; j++ {
				b.Set(i, j, b.At(j, i))
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("2I+J, D=%d", d), a}, input{fmt.Sprintf("repeated spectrum, D=%d", d), b})
	}
	for _, in := range inputs {
		wantVals, wantVecs, err := refEigenSym(in.a)
		if err != nil {
			t.Fatal(err)
		}
		atProcs(t, func(procs int) {
			vals, vecs, err := EigenSym(in.a)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(vals, wantVals) || !sameBits(vecs.Data, wantVecs.Data) {
				t.Errorf("%s, GOMAXPROCS %d: eigendecomposition differs from the reference", in.name, procs)
			}
		})
	}
}

// TestProcrustesMatchesReference: SVDSquare reads the right singular
// vectors as rows, where the reference read them down a column of their
// transpose; OPQ's rotation comes out the same bits.
func TestProcrustesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, d := range []int{1, 2, 8, 33} {
		c := randomMatrix(r, d, d)
		want, err := refProcrustes(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Procrustes(c)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Data, want.Data) {
			t.Errorf("D=%d: Procrustes differs from the reference", d)
		}
	}
}

func refEigenSym(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("matrix: EigenSym needs a square matrix")
	}
	n := a.Rows
	// Work on a copy; z accumulates the orthogonal transform.
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(z, d, e)
	if err := refTqli(d, e, z); err != nil {
		return nil, nil, err
	}
	// z currently holds eigenvectors in its COLUMNS; sort descending by
	// eigenvalue and emit row-major eigenvectors.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	vals = make([]float64, n)
	vecs = New(n, n)
	for r, k := range idx {
		vals[r] = d[k]
		row := vecs.Row(r)
		for i := 0; i < n; i++ {
			row[i] = z.At(i, k)
		}
	}
	return vals, vecs, nil
}

func refTred2(z *Matrix, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					z.Set(i, k, z.At(i, k)/scale)
					h += z.At(i, k) * z.At(i, k)
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-f*e[k]-g*z.At(i, k))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

func refTqli(d, e []float64, z *Matrix) error {
	const tol = 1e-14
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
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
				for k := 0; k < z.Rows; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
				}
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

func refSVDSquare(a *Matrix) (u *Matrix, s []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, nil, errors.New("matrix: SVDSquare needs a square matrix")
	}
	n := a.Rows
	at := a.T()
	ata, err := Mul(at, a)
	if err != nil {
		return nil, nil, nil, err
	}
	evals, evecsRows, err := refEigenSym(ata)
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
			// u_j = A v_j / s_j
			for i := 0; i < n; i++ {
				var acc float64
				arow := a.Row(i)
				for k := 0; k < n; k++ {
					acc += arow[k] * v.At(k, j)
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

func refProcrustes(crossCov *Matrix) (*Matrix, error) {
	u, _, v, err := refSVDSquare(crossCov)
	if err != nil {
		return nil, err
	}
	return Mul(v, u.T())
}

func refAccumulateOuter(cov *Matrix, cent []float64, from, to int) {
	d := len(cent)
	for i := from; i < to; i++ {
		ci := cent[i]
		if ci == 0 {
			continue
		}
		crow := cov.Row(i)
		for j := i; j < d; j++ {
			crow[j] += ci * cent[j]
		}
	}
}

func refCovariance(data ...*store.Matrix) (*Matrix, []float64, error) {
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
	half := (d + 1) / 2
	par.Range(half, 0, func(lo, hi int) {
		cent := make([]float64, d)
		for _, m := range data {
			for i := 0; i < m.Rows(); i++ {
				for j, v := range m.Row(i) {
					cent[j] = float64(v) - mean[j]
				}
				refAccumulateOuter(cov, cent, lo, hi)
				refAccumulateOuter(cov, cent, max(d-hi, half), d-lo)
			}
		}
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

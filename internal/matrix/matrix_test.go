package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"resinfer/internal/store"
	"resinfer/internal/vec"
)

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x0 matrix")
		}
	}()
	New(0, 0)
}

// apply returns m·x for a column vector x, through Mul.
func apply(t testing.TB, m *Matrix, x []float64) []float64 {
	t.Helper()
	xm := New(len(x), 1)
	copy(xm.Data, x)
	y, err := Mul(m, xm)
	if err != nil {
		t.Fatal(err)
	}
	return y.Data
}

func TestIdentityApply(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := apply(t, Identity(4), x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity apply changed vector: %v", y)
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected ragged-row error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, New(3, 2)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatrix(r, 1+r.Intn(10), 1+r.Intn(10))
		tt := m.T().T()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestF32MatVecMatchesApply pins the data-plane path (narrow once, then
// vec.MatVec) against the float64 reference mat-vec.
func TestF32MatVecMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := randomMatrix(r, 6, 6)
	x32 := make([]float32, 6)
	x64 := make([]float64, 6)
	for i := range x32 {
		x32[i] = float32(r.NormFloat64())
		x64[i] = float64(x32[i])
	}
	f := m.F32()
	if f.Rows() != 6 || f.Dim() != 6 {
		t.Fatalf("F32 shape %dx%d", f.Rows(), f.Dim())
	}
	y32 := make([]float32, 6)
	vec.MatVec(y32, f.Flat(), 6, x32)
	y64 := apply(t, m, x64)
	for i := range y32 {
		if math.Abs(float64(y32[i])-y64[i]) > 1e-4 {
			t.Fatalf("MatVec mismatch at %d: %v vs %v", i, y32[i], y64[i])
		}
	}
}

func TestRandomOrthogonal(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 8, 33} {
		m := RandomOrthogonal(n, r)
		if !m.IsOrthonormal(1e-9) {
			t.Fatalf("RandomOrthogonal(%d) not orthonormal", n)
		}
	}
}

// Property: orthogonal rotation preserves Euclidean norms (the basis of
// every projection method in the paper).
func TestRotationPreservesNorm(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := RandomOrthogonal(24, r)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := make([]float64, 24)
		for i := range x {
			x[i] = rr.NormFloat64()
		}
		y := apply(t, m, x)
		var nx, ny float64
		for i := range x {
			nx += x[i] * x[i]
			ny += y[i] * y[i]
		}
		return math.Abs(nx-ny) < 1e-8*(1+nx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGramSchmidtRankDeficient(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 0}, {2, 0}})
	if err := GramSchmidt(m); err == nil {
		t.Fatal("expected rank-deficiency error")
	}
}

func TestCovarianceKnown(t *testing.T) {
	data := store.MustFromRows([][]float32{{1, 0}, {-1, 0}, {0, 2}, {0, -2}})
	cov, mean, err := Covariance(data)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] != 0 || mean[1] != 0 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(cov.At(0, 0)-0.5) > 1e-9 || math.Abs(cov.At(1, 1)-2) > 1e-9 {
		t.Fatalf("cov diag = %v %v", cov.At(0, 0), cov.At(1, 1))
	}
	if math.Abs(cov.At(0, 1)) > 1e-9 || math.Abs(cov.At(1, 0)) > 1e-9 {
		t.Fatal("off-diagonal should be 0")
	}
}

// TestCovarianceSameForAnyWorkerCount: the accumulation is split across
// GOMAXPROCS goroutines by output row, so every element is summed in data
// order whatever the split — bit-identical results at 1, 2, 3 and 8 procs,
// at an even and an odd dimension (the middle row pairs with itself), and
// equal to the textbook double loop.
func TestCovarianceSameForAnyWorkerCount(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, d := range []int{1, 6, 7, 33} {
		data := make([][]float32, 50)
		for i := range data {
			data[i] = make([]float32, d)
			for j := range data[i] {
				data[i][j] = float32(r.NormFloat64()) + float32(j)
			}
		}
		runtime.GOMAXPROCS(1)
		mat := store.MustFromRows(data)
		want, mean, err := Covariance(mat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				var s float64
				for _, row := range data {
					s += (float64(row[i]) - mean[i]) * (float64(row[j]) - mean[j])
				}
				if got := want.At(i, j); math.Abs(got-s/50) > 1e-12*(1+math.Abs(got)) {
					t.Fatalf("d=%d cov[%d][%d] = %v, want %v", d, i, j, got, s/50)
				}
			}
		}
		for _, procs := range []int{2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got, _, err := Covariance(mat)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("d=%d: element %d is %v at %d procs, %v at 1", d, i, v, procs, want.Data[i])
				}
			}
		}
		// The same rows split over several matrices sum in the same order.
		got, gotMean, err := Covariance(store.MustFromRows(data[:7]), store.MustFromRows(data[7:8]), store.MustFromRows(data[8:]))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Data, want.Data) || !slices.Equal(gotMean, mean) {
			t.Fatalf("d=%d: covariance of the split rows differs from that of their concatenation", d)
		}
	}
}

func TestCovarianceErrors(t *testing.T) {
	if _, _, err := Covariance(); err == nil {
		t.Fatal("expected empty error")
	}
	if _, _, err := Covariance(nil); err == nil {
		t.Fatal("expected nil-matrix error")
	}
	if _, _, err := Covariance(store.MustFromRows([][]float32{{1, 2}}), store.MustFromRows([][]float32{{3}})); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	if !vecs.IsOrthonormal(1e-9) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 5, 17, 40} {
		// Build a random symmetric matrix.
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// Descending order.
		for i := 0; i+1 < n; i++ {
			if vals[i] < vals[i+1] {
				t.Fatalf("n=%d eigenvalues not descending: %v", n, vals)
			}
		}
		if !vecs.IsOrthonormal(1e-8) {
			t.Fatalf("n=%d eigenvectors not orthonormal", n)
		}
		// Check A v = lambda v for each eigenpair (rows of vecs).
		for k := 0; k < n; k++ {
			v := vecs.Row(k)
			av := apply(t, a, v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[k]*v[i]) > 1e-7*(1+math.Abs(vals[k])) {
					t.Fatalf("n=%d eigenpair %d fails A v = lambda v", n, k)
				}
			}
		}
	}
}

func TestEigenSymRejectsNonSquare(t *testing.T) {
	if _, _, err := EigenSym(New(2, 3)); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestSVDSquareReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 6, 20} {
		a := randomMatrix(r, n, n)
		u, s, v, err := SVDSquare(a)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct A = U diag(s) V^T.
		us := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				us.Set(i, j, u.At(i, j)*s[j])
			}
		}
		rec, err := Mul(us, v.T())
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-6 {
				t.Fatalf("n=%d SVD reconstruction error %v at %d",
					n, rec.Data[i]-a.Data[i], i)
			}
		}
		// Singular values descending and non-negative.
		for i := 0; i+1 < n; i++ {
			if s[i] < s[i+1] || s[i+1] < 0 {
				t.Fatalf("singular values not sorted: %v", s)
			}
		}
	}
}

func TestSVDSquareSingular(t *testing.T) {
	// Rank-1 matrix: SVD must still return orthonormal factors.
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	u, s, v, err := SVDSquare(a)
	if err != nil {
		t.Fatal(err)
	}
	if s[1] > 1e-8 {
		t.Fatalf("second singular value should vanish: %v", s)
	}
	if !u.T().IsOrthonormal(1e-8) || !v.T().IsOrthonormal(1e-8) {
		t.Fatal("factors not orthonormal for singular input")
	}
}

func TestProcrustesRecoversRotation(t *testing.T) {
	// If Y = X R0^T exactly, Procrustes on C = X^T Y must return R ≈ R0.
	r := rand.New(rand.NewSource(21))
	n, d := 200, 8
	r0 := RandomOrthogonal(d, r)
	x := randomMatrix(r, n, d)
	y, err := Mul(x, r0.T())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Mul(x.T(), y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Procrustes(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-r0.Data[i]) > 1e-6 {
			t.Fatalf("Procrustes failed to recover rotation at %d: %v vs %v",
				i, got.Data[i], r0.Data[i])
		}
	}
}

func BenchmarkEigenSym128(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 128
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}

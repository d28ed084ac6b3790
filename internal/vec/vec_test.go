package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMatchesFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100, 301} {
		a, b := randVec(r, n), randVec(r, n)
		got := float64(Dot(a, b))
		want := Dot64(a, b)
		if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Errorf("n=%d: Dot=%v Dot64=%v", n, got, want)
		}
	}
}

func TestL2SqBasic(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{1, 2, 2}
	if got := L2Sq(a, b); got != 9 {
		t.Fatalf("L2Sq = %v, want 9", got)
	}
}

func TestL2SqSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(64)
		a, b := randVec(r, n), randVec(r, n)
		return L2Sq(a, b) == L2Sq(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL2SqIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVec(r, 1+r.Intn(128))
		return L2Sq(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b> (the paper's Eq. 2 with
// d = 0 residual split).
func TestDistanceDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		a, b := randVec(r, n), randVec(r, n)
		lhs := L2Sq64(a, b)
		rhs := float64(NormSq(a)) + float64(NormSq(b)) - 2*Dot64(a, b)
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: prefix dot + suffix dot = full dot, the invariant incremental
// DCOs rely on.
func TestDotRangeSplits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		cut := 1 + r.Intn(n-1)
		a, b := randVec(r, n), randVec(r, n)
		full := Dot64(a, b)
		split := float64(DotRange(a, b, 0, cut)) + float64(DotRange(a, b, cut, n))
		return math.Abs(full-split) < 1e-2*(1+math.Abs(full))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL2SqRangeSplits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		cut := 1 + r.Intn(n-1)
		a, b := randVec(r, n), randVec(r, n)
		full := L2Sq64(a, b)
		split := float64(L2SqRange(a, b, 0, cut)) + float64(L2SqRange(a, b, cut, n))
		return math.Abs(full-split) < 1e-2*(1+math.Abs(full))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuffixNormSq(t *testing.T) {
	a := []float32{3, 4, 0}
	got := SuffixNormSqInto(make([]float64, len(a)+1), a)
	want := []float64{25, 16, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("SuffixNormSqInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSuffixNormSqMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVec(r, 1+r.Intn(100))
		s := SuffixNormSqInto(make([]float64, len(a)+1), a)
		for i := 0; i < len(s)-1; i++ {
			if s[i] < s[i+1] {
				return false
			}
		}
		return s[len(s)-1] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuffixWeightedSq(t *testing.T) {
	a := []float32{1, 2}
	w := []float32{3, 0.5}
	got := SuffixWeightedSq(a, w)
	// entries: (1*3)^2+(2*0.5)^2 = 10, (2*0.5)^2 = 1, 0
	want := []float64{10, 1, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("SuffixWeightedSq[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormSq(t *testing.T) {
	if got := NormSq([]float32{3, 4}); got != 25 {
		t.Fatalf("NormSq = %v, want 25", got)
	}
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestScaleAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	Scale(a, 2)
	if !Equal(a, []float32{2, 4, 6}) {
		t.Fatalf("Scale: %v", a)
	}
	y := []float32{1, 1, 1}
	Axpy(0.5, a, y)
	if !Equal(y, []float32{2, 3, 4}) {
		t.Fatalf("Axpy: %v", y)
	}
}

func TestAddSubClone(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 5}
	if !Equal(Add(a, b), []float32{4, 7}) {
		t.Fatal("Add")
	}
	if !Equal(Sub(b, a), []float32{2, 3}) {
		t.Fatal("Sub")
	}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
	dst := make([]float32, 2)
	SubInto(dst, b, a)
	if !Equal(dst, []float32{2, 3}) {
		t.Fatal("SubInto")
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float32{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func BenchmarkDot256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randVec(r, 256), randVec(r, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkL2Sq256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randVec(r, 256), randVec(r, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = L2Sq(x, y)
	}
}

func TestFlatKernelsMatchSliceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{1, 3, 7, 8, 9, 16, 31, 64, 100} {
		rows, q := 5, make([]float32, dim)
		flat := make([]float32, rows*dim)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		for i := range flat {
			flat[i] = float32(rng.NormFloat64())
		}
		for r := 0; r < rows; r++ {
			base := r * dim
			row := flat[base : base+dim]
			if got, want := L2SqFlat(q, flat, base), L2Sq(q, row); got != want {
				t.Fatalf("dim %d L2SqFlat = %v want %v", dim, got, want)
			}
			if got, want := DotFlat(q, flat, base), Dot(q, row); got != want {
				t.Fatalf("dim %d DotFlat = %v want %v", dim, got, want)
			}
			lo, hi := dim/3, dim
			if got, want := L2SqRangeFlat(q, flat, base, lo, hi), L2Sq(q[lo:hi], row[lo:hi]); got != want {
				t.Fatalf("dim %d L2SqRangeFlat = %v want %v", dim, got, want)
			}
			if got, want := DotRangeFlat(q, flat, base, lo, hi), Dot(q[lo:hi], row[lo:hi]); got != want {
				t.Fatalf("dim %d DotRangeFlat = %v want %v", dim, got, want)
			}
		}
	}
}

func TestSuffixIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, w := make([]float32, 33), make([]float32, 33)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		w[i] = float32(rng.Float64())
	}
	out := make([]float64, len(a)+1)
	got := SuffixWeightedSqInto(out, a, w)
	want := SuffixWeightedSq(a, w)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SuffixWeightedSqInto[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

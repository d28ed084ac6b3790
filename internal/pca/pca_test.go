package pca

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"resinfer/internal/persist"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// anisotropic draws n samples from N(mean, diag(vars)) rotated by an
// arbitrary fixed rotation so PCA has something to discover.
func anisotropic(r *rand.Rand, n int, vars []float64) [][]float32 {
	d := len(vars)
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(math.Sqrt(vars[j]) * r.NormFloat64())
		}
		data[i] = row
	}
	return data
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Train(Config{}, nil); err == nil {
		t.Fatal("expected nil-matrix error")
	}
	a, b := store.MustFromRows([][]float32{{1, 2}, {3, 4}}), store.MustFromRows([][]float32{{1}})
	if _, err := Train(Config{}, a, b); err == nil {
		t.Fatal("expected ragged error")
	}
}

// TestTrainOverSeveralMatrices: rows are visited in argument order, so the
// model of a data set split over matrices is the model of the whole, bit for
// bit — sampled or not. That is what lets a sharded index train one rotation
// over its shards' matrices without gathering their rows.
func TestTrainOverSeveralMatrices(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	data := anisotropic(r, 900, []float64{9, 5, 3, 2, 1, 0.5})
	for _, cfg := range []Config{{}, {SampleSize: 300, Seed: 4}} {
		whole, err := Train(cfg, store.MustFromRows(data))
		if err != nil {
			t.Fatal(err)
		}
		split, err := Train(cfg, store.MustFromRows(data[:100]), store.MustFromRows(data[100:101]), store.MustFromRows(data[101:]))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(split.Mean, whole.Mean) || !slices.Equal(split.Rotation.Flat(), whole.Rotation.Flat()) ||
			!slices.Equal(split.Variances, whole.Variances) || !slices.Equal(split.Sigmas, whole.Sigmas) {
			t.Fatalf("SampleSize %d: model of the split rows differs from the model of their concatenation", cfg.SampleSize)
		}
	}
}

// TestMeanFreeModelProjectsLikeMatVec: a model without a mean — the form
// ADSampling's random rotation takes — projects by the rotation alone, with
// exactly the bits of vec.MatVec, one row at a time or a matrix at once.
func TestMeanFreeModelProjectsLikeMatVec(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	data := anisotropic(r, 40, []float64{4, 3, 2, 1, 1})
	trained, err := Train(Config{}, store.MustFromRows(data))
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Dim: trained.Dim, Rotation: trained.Rotation}
	mat := store.MustFromRows(data)
	rotated, err := m.ProjectMatrix(mat, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, m.Dim)
	for i, row := range data {
		vec.MatVec(want, m.Rotation.Flat(), m.Dim, row)
		got, err := m.Project(row)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || !slices.Equal(rotated.Row(i), want) {
			t.Fatalf("row %d: mean-free projection differs from vec.MatVec", i)
		}
	}
	if re := m.Refit(rotated); re.Mean != nil || re.Rotation != m.Rotation {
		t.Fatal("Refit of a mean-free model grew a mean or copied the rotation")
	}
}

func TestVariancesDescendingAndRecovered(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vars := []float64{16, 9, 4, 1}
	data := anisotropic(r, 20000, vars)
	m, err := Train(Config{}, store.MustFromRows(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(m.Variances); i++ {
		if m.Variances[i] < m.Variances[i+1] {
			t.Fatalf("variances not descending: %v", m.Variances)
		}
	}
	for i, want := range vars {
		if math.Abs(m.Variances[i]-want) > 0.5 {
			t.Fatalf("variance[%d] = %v, want ~%v", i, m.Variances[i], want)
		}
	}
}

func TestProjectPreservesDistances(t *testing.T) {
	// Full-dimensional rotation is an isometry: pairwise distances are
	// preserved (the precondition for using rotated vectors for exact
	// distances).
	r := rand.New(rand.NewSource(2))
	data := anisotropic(r, 500, []float64{5, 3, 2, 1, 0.5, 0.2})
	m, err := Train(Config{}, store.MustFromRows(data))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		a := data[r.Intn(len(data))]
		b := data[r.Intn(len(data))]
		pa, err := m.Project(a)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := m.Project(b)
		orig := float64(vec.L2Sq(a, b))
		rot := float64(vec.L2Sq(pa, pb))
		if math.Abs(orig-rot) > 1e-2*(1+orig) {
			t.Fatalf("rotation is not an isometry: %v vs %v", orig, rot)
		}
	}
}

func TestProjectDimensionMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := anisotropic(r, 100, []float64{1, 1})
	m, _ := Train(Config{}, store.MustFromRows(data))
	if _, err := m.Project([]float32{1}); err != nil {
		// good
	} else {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestVarianceExplainedMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := anisotropic(r, 3000, []float64{10, 5, 2, 1, 0.5, 0.1})
	m, _ := Train(Config{}, store.MustFromRows(data))
	f := func(du, dv uint8) bool {
		a, b := int(du)%7, int(dv)%7
		if a > b {
			a, b = b, a
		}
		return m.VarianceExplained(a) <= m.VarianceExplained(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if m.VarianceExplained(0) != 0 {
		t.Fatal("VE(0) must be 0")
	}
	if math.Abs(m.VarianceExplained(6)-1) > 1e-9 {
		t.Fatal("VE(D) must be 1")
	}
	if math.Abs(m.VarianceExplained(99)-1) > 1e-9 {
		t.Fatal("VE(d>D) clamps to 1")
	}
}

func TestResidualVariancePlusLeadEqualsTotal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := anisotropic(r, 2000, []float64{4, 3, 2, 1})
	m, _ := Train(Config{}, store.MustFromRows(data))
	// residual(d) = Σ_{i>=d} σ²ᵢ, the variance mass left at depth d.
	residual := func(d int) (s float64) {
		for _, v := range m.Variances[d:] {
			s += v
		}
		return s
	}
	total := residual(0)
	for d := 0; d <= 4; d++ {
		lead := total - residual(d)
		if math.Abs(lead/total-m.VarianceExplained(d)) > 1e-9 {
			t.Fatalf("d=%d inconsistent VE vs residual", d)
		}
	}
}

func TestSkewControlsVE(t *testing.T) {
	// High-skew data (image-like) captures much more variance at small d
	// than flat data (GLOVE-like) — the Exp-1 selection criterion.
	r := rand.New(rand.NewSource(6))
	d := 32
	skewed := make([]float64, d)
	flat := make([]float64, d)
	for i := 0; i < d; i++ {
		skewed[i] = math.Pow(0.75, float64(i))
		flat[i] = 1
	}
	ms, _ := Train(Config{}, store.MustFromRows(anisotropic(r, 4000, skewed)))
	mf, _ := Train(Config{}, store.MustFromRows(anisotropic(r, 4000, flat)))
	if ms.VarianceExplained(8) <= mf.VarianceExplained(8)+0.1 {
		t.Fatalf("skewed VE(8)=%v should far exceed flat VE(8)=%v",
			ms.VarianceExplained(8), mf.VarianceExplained(8))
	}
}

func TestSampledTrainingClose(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vars := []float64{8, 4, 2, 1}
	data := anisotropic(r, 20000, vars)
	full, _ := Train(Config{}, store.MustFromRows(data))
	sampled, err := Train(Config{SampleSize: 4000, Seed: 3}, store.MustFromRows(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vars {
		if math.Abs(full.Variances[i]-sampled.Variances[i]) > 0.8 {
			t.Fatalf("sampled variance[%d]=%v too far from full %v",
				i, sampled.Variances[i], full.Variances[i])
		}
	}
}

func TestSigmasMatchVariances(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := anisotropic(r, 1000, []float64{9, 4, 1})
	m, _ := Train(Config{}, store.MustFromRows(data))
	for i := range m.Variances {
		if math.Abs(float64(m.Sigmas[i])*float64(m.Sigmas[i])-m.Variances[i]) > 1e-3 {
			t.Fatalf("sigma[%d]^2 != variance", i)
		}
	}
}

// TestProjectMatrix checks the bulk path against Project row by row, at
// every worker count that changes the chunking (serial, one row per
// worker, more workers than rows), and its input validation.
func TestProjectMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data := anisotropic(r, 50, []float64{2, 1, 0.5})
	m, _ := Train(Config{}, store.MustFromRows(data))
	mat := store.MustFromRows(data)
	for _, workers := range []int{0, 1, 3, 50, 64} {
		rot, err := m.ProjectMatrix(mat, workers)
		if err != nil {
			t.Fatal(err)
		}
		if rot.Rows() != len(data) || rot.Dim() != m.Dim {
			t.Fatalf("workers=%d: shape %dx%d", workers, rot.Rows(), rot.Dim())
		}
		for i, row := range data {
			want, _ := m.Project(row)
			if !vec.Equal(rot.Row(i), want) {
				t.Fatalf("workers=%d: row %d disagrees with Project", workers, i)
			}
		}
	}
	if _, err := m.ProjectMatrix(nil, 1); err == nil {
		t.Fatal("expected empty-data error")
	}
	if _, err := m.ProjectMatrix(store.MustFromRows([][]float32{{1, 2}}), 1); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestRefitRecoversEigenvalueSigmas: on the rows a model was trained on,
// the σ Refit takes from the rotated rows is the eigenvalue σ up to
// float32 rounding (the rotation is applied in float32) — what lets a
// shard that inherits a rotation recompute the Eq. 3 bound's σ without an
// eigensolver — and the refit model shares the rotation and the mean.
func TestRefitRecoversEigenvalueSigmas(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vars := make([]float64, 48)
	for i := range vars {
		vars[i] = 25 / float64(1+i)
	}
	data := anisotropic(r, 3000, vars)
	for _, row := range data {
		for j := range row {
			row[j] += 2 // a mean the model has to remove
		}
	}
	m, err := Train(Config{}, store.MustFromRows(data))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := m.ProjectMatrix(mat, 2)
	if err != nil {
		t.Fatal(err)
	}
	re := m.Refit(rotated)
	if re.Rotation != m.Rotation || &re.Mean[0] != &m.Mean[0] {
		t.Fatal("Refit copied the rotation or the mean")
	}
	for i, want := range m.Sigmas {
		if got := re.Sigmas[i]; math.Abs(float64(got-want)) > 1e-4*float64(m.Sigmas[0]) {
			t.Errorf("sigma[%d] = %v from rotated rows, %v from the eigenvalue", i, got, want)
		}
	}
}

// TestEncodeWritesSharedRotationOnce: a model and its Refit share a mean and
// a rotation, so one stream carries the pair once and decodes two models
// that share them again, with σ bit-identical to the encoded ones. A
// mean-free model decodes mean-free.
func TestEncodeWritesSharedRotationOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := store.MustFromRows(anisotropic(r, 400, []float64{9, 4, 1, 0.5, 0.25, 0.1}))
	m, err := Train(Config{}, data)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := m.ProjectMatrix(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	free := &Model{Dim: m.Dim, Rotation: m.Rotation.Clone()}
	models := []*Model{m, m.Refit(rotated), free}

	encode := func(ms ...*Model) []byte {
		var buf bytes.Buffer
		pw := persist.NewWriter(&buf)
		for _, x := range ms {
			x.Encode(pw)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if grew := len(encode(m, models[1])) - len(encode(m)); grew >= 4*m.Dim*m.Dim {
		t.Errorf("a Refit adds %d bytes to its model's stream: the shared rotation was written twice", grew)
	}

	pr := persist.NewReader(bytes.NewReader(encode(models...)))
	var got []*Model
	for range models {
		x, err := Decode(pr)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, x)
	}
	if got[1].Rotation != got[0].Rotation || &got[1].Mean[0] != &got[0].Mean[0] {
		t.Error("the refit model decoded its own rotation or mean")
	}
	if got[2].Mean != nil || got[2].Variances != nil || got[2].Rotation == got[0].Rotation {
		t.Error("the mean-free model did not decode as its own mean-free rotation")
	}
	for i, want := range models {
		if !slices.Equal(got[i].Rotation.Flat(), want.Rotation.Flat()) ||
			!slices.Equal(got[i].Mean, want.Mean) || !slices.Equal(got[i].Sigmas, want.Sigmas) ||
			!slices.Equal(got[i].Variances, want.Variances) {
			t.Errorf("model %d did not round-trip bit for bit", i)
		}
	}
}

// BenchmarkTrain times the whole PCA fit — covariance plus eigensolver —
// at the benchmark gate's shape (4 000 × 420) and at the paper's widest
// dimension (2 000 × 960), on seeded rows with a geometrically decaying
// spectrum.
func BenchmarkTrain(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{4000, 420}, {2000, 960}} {
		vars := make([]float64, shape.d)
		for i := range vars {
			vars[i] = math.Pow(0.98, float64(i))
		}
		data := store.MustFromRows(anisotropic(rand.New(rand.NewSource(1)), shape.n, vars))
		b.Run(fmt.Sprintf("%dx%d", shape.n, shape.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Train(Config{}, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

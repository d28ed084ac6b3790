package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"resinfer/internal/pca"
	"resinfer/internal/vec"
)

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(GenConfig{Name: "t", N: 500, Dim: 24, Queries: 10, TrainQueries: 20, Seed: 1, VE32: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Data) != 500 || len(ds.Queries) != 10 || len(ds.Train) != 20 {
		t.Fatalf("shapes: %d %d %d", len(ds.Data), len(ds.Queries), len(ds.Train))
	}
	for _, row := range ds.Data[:5] {
		if len(row) != 24 {
			t.Fatal("wrong dim")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{N: 0, Dim: 4}); err == nil {
		t.Fatal("expected N error")
	}
	if _, err := Generate(GenConfig{N: 10, Dim: 4, Queries: -1}); err == nil {
		t.Fatal("expected negative-queries error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Name: "d", N: 100, Dim: 8, Queries: 5, Seed: 42, VE32: 0.6}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.Data {
		if !vec.Equal(a.Data[i], b.Data[i]) {
			t.Fatal("same seed must reproduce identical data")
		}
	}
}

func TestSolveDecay(t *testing.T) {
	// Solving then evaluating should give back the target.
	for _, target := range []float64{0.18, 0.36, 0.55, 0.67, 0.82} {
		g := solveDecay(300, 32, target)
		got := (1 - math.Pow(g, 32)) / (1 - math.Pow(g, 300))
		if math.Abs(got-target) > 1e-6 {
			t.Errorf("target %v: solved %v gives %v", target, g, got)
		}
	}
	if solveDecay(16, 32, 0.9) != 1 {
		t.Error("dim <= d must return flat profile")
	}
	if solveDecay(300, 32, 0.05) != 1 {
		t.Error("target below uniform must return flat profile")
	}
}

func TestVE32CalibrationSurvivesGeneration(t *testing.T) {
	// PCA trained on generated data should capture roughly the requested
	// variance fraction in 32 dims — the property the whole substitution
	// argument rests on.
	// Dim must be large enough that the target exceeds the uniform floor
	// 32/Dim, otherwise the flat profile is the best the generator can do.
	for _, target := range []float64{0.2, 0.6, 0.8} {
		ds, err := Generate(GenConfig{Name: "cal", N: 6000, Dim: 256, Seed: 7, VE32: target})
		if err != nil {
			t.Fatal(err)
		}
		m, err := pca.Train(pca.Config{}, ds.Matrix())
		if err != nil {
			t.Fatal(err)
		}
		got := m.VarianceExplained(32)
		if math.Abs(got-target) > 0.08 {
			t.Errorf("target VE32 %v, PCA measured %v", target, got)
		}
	}
}

func TestMixerIsIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newMixer(40, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float32, 40)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		before := float64(vec.NormSq(x))
		m.apply(x)
		after := float64(vec.NormSq(x))
		return math.Abs(before-after) < 1e-3*(1+before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBruteForceKNNExactOnToyData(t *testing.T) {
	data := [][]float32{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	queries := [][]float32{{0.1, 0}, {2.9, 0}}
	gt, err := BruteForceKNN(data, queries, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gt[0][0] != 0 || gt[0][1] != 1 {
		t.Fatalf("query 0 gt = %v", gt[0])
	}
	if gt[1][0] != 3 || gt[1][1] != 2 {
		t.Fatalf("query 1 gt = %v", gt[1])
	}
}

func TestBruteForceKNNErrors(t *testing.T) {
	if _, err := BruteForceKNN(nil, nil, 1, 1); err == nil {
		t.Fatal("expected empty-data error")
	}
	if _, err := BruteForceKNN([][]float32{{1}}, nil, 0, 1); err == nil {
		t.Fatal("expected k error")
	}
}

func TestBruteForceKNNClampsK(t *testing.T) {
	data := [][]float32{{0}, {1}}
	gt, err := BruteForceKNN(data, [][]float32{{0}}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt[0]) != 2 {
		t.Fatalf("expected clamp to n, got %d", len(gt[0]))
	}
}

// Property: brute-force results are sorted by distance and unique.
func TestBruteForceSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(100)
		data := make([][]float32, n)
		for i := range data {
			data[i] = []float32{float32(r.NormFloat64()), float32(r.NormFloat64())}
		}
		q := [][]float32{{float32(r.NormFloat64()), float32(r.NormFloat64())}}
		gt, err := BruteForceKNN(data, q, 10, 4)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		prev := float32(-1)
		for _, id := range gt[0] {
			if seen[id] {
				return false
			}
			seen[id] = true
			d := vec.L2Sq(q[0], data[id])
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecall(t *testing.T) {
	truth := [][]int{{1, 2, 3}, {4, 5, 6}}
	perfect := [][]int{{3, 2, 1}, {6, 5, 4}}
	if r := Recall(perfect, truth, 3); r != 1 {
		t.Fatalf("perfect recall = %v", r)
	}
	half := [][]int{{1, 9, 3}, {9, 5, 8}}
	if r := Recall(half, truth, 3); math.Abs(r-0.5) > 1e-9 {
		t.Fatalf("half recall = %v", r)
	}
	if r := Recall(nil, truth, 3); r != 0 {
		t.Fatalf("empty recall = %v", r)
	}
	// Truncation to k.
	long := [][]int{{1, 2, 3, 99, 98}, {4, 5, 6, 97, 96}}
	if r := Recall(long, truth, 3); r != 1 {
		t.Fatalf("k-truncated recall = %v", r)
	}
}

func TestOODQueriesShifted(t *testing.T) {
	cfg := GenConfig{Name: "ood", N: 2000, Dim: 32, Seed: 5, VE32: 0.6}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ood, err := OODQueries(cfg, 100, 4.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ood) != 100 {
		t.Fatalf("len = %d", len(ood))
	}
	// OOD queries should be farther from the data mean than in-dist data.
	mean := make([]float64, 32)
	for _, row := range ds.Data {
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	for j := range mean {
		mean[j] /= float64(len(ds.Data))
	}
	dist := func(x []float32) float64 {
		var s float64
		for j, v := range x {
			d := float64(v) - mean[j]
			s += d * d
		}
		return s
	}
	var inAvg, oodAvg float64
	for _, row := range ds.Data[:100] {
		inAvg += dist(row)
	}
	for _, row := range ood {
		oodAvg += dist(row)
	}
	if oodAvg <= inAvg {
		t.Fatalf("OOD queries not shifted: %v vs %v", oodAvg, inAvg)
	}
	if _, err := OODQueries(cfg, 0, 1, 1); err == nil {
		t.Fatal("expected n error")
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) < 8 {
		t.Fatalf("expected >=8 profiles, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.N <= 0 || p.Dim <= 0 || p.VE32 <= 0 || p.VE32 >= 1 {
			t.Fatalf("profile %q has invalid parameters: %+v", p.Name, p)
		}
	}
	// Paper-quoted VE32 values must be encoded.
	for name, want := range map[string]float64{"gist": 0.67, "sift": 0.82, "word2vec": 0.36, "glove": 0.18} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.VE32-want) > 1e-9 {
			t.Errorf("%s VE32 = %v, want %v", name, p.VE32, want)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected unknown-profile error")
	}
}

func TestFvecsRoundTrip(t *testing.T) {
	rows := [][]float32{{1.5, -2.25, 3}, {0, 1e-9, 42}}
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFvecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !vec.Equal(got[0], rows[0]) || !vec.Equal(got[1], rows[1]) {
		t.Fatalf("round trip mismatch: %v", got)
	}
}

func TestFvecsRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFvecs(&buf, [][]float32{{1, 2}})
	b := buf.Bytes()
	// Truncate mid-row.
	if _, err := ReadFvecs(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("expected truncation error")
	}
	// Mixed dimensions.
	var mixed bytes.Buffer
	_ = WriteFvecs(&mixed, [][]float32{{1, 2}})
	_ = WriteFvecs(&mixed, [][]float32{{1, 2, 3}})
	if _, err := ReadFvecs(&mixed); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
}

func TestIvecsRoundTrip(t *testing.T) {
	rows := [][]int{{1, 2, 3}, {-1, 0, 7}}
	var buf bytes.Buffer
	if err := WriteIvecs(&buf, rows); err != nil {
		t.Fatal(err)
	}
	// ivecs: per row a little-endian int32 length, then that many int32s.
	want := []int32{3, 1, 2, 3, 3, -1, 0, 7}
	got := make([]int32, len(want))
	if err := binary.Read(&buf, binary.LittleEndian, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || buf.Len() != 0 {
		t.Fatalf("ivecs stream decodes to %v (+%d bytes), want %v", got, buf.Len(), want)
	}
}

func TestFvecsFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fvecs")
	rows := [][]float32{{9, 8, 7}}
	if err := SaveFvecsFile(path, rows); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFvecsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(got[0], rows[0]) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFvecsFile(filepath.Join(dir, "missing.fvecs")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

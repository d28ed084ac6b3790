package resinfer

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/pca"
	"resinfer/internal/vec"
)

// noPruneDCO is a DCO whose evaluators Compare every id: exact with its
// prefix bound switched off, the reference the bound must not move.
type noPruneDCO struct{ core.DCO }

func (d noPruneDCO) NewEvaluator() core.ResettableEvaluator {
	return noPrune{d.DCO.NewEvaluator()}
}

type noPrune struct{ core.ResettableEvaluator }

func (noPrune) Prune(ids []int32, _ float32, _ []int32) []int32 { return ids }

// TestExactPruneIsLossless holds exact's prefix bound to the scan it
// replaces, on rows of more dimensions than the bound reads and at least
// as many rows as dimensions, so every index trains a model at
// construction. Flat, IVF at one probe and at every list, and HNSW past
// its break-even ef, each on raw rows and on the same rows re-based by
// Enable(DDCRes), answer in-distribution queries, queries shifted 2 and 4
// standard deviations off the data, and queries equal to a row, over rows
// that include duplicates, and over rows that lie inside the model's
// leading subspace (no tail), at k 1, 10 and n + 5. Every answer has the
// ids and distance bits of the same index with the bound switched off, and
// a scan over every row the ids of dataset.BruteForceKNN; a scan counts n
// comparisons, each ruled-out row P dimensions and every other row D.
func TestExactPruneIsLossless(t *testing.T) {
	const n, dim, nq = 600, 96, 12
	cfg := dataset.GenConfig{Name: "lossless", N: n - 20, Dim: dim, Queries: nq, VE32: 0.6, Seed: 41}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled so a row's tail norm exceeds 1: a bound that dropped the
	// tail's factor would then rule out rows it must keep.
	scale := func(rows [][]float32) [][]float32 {
		out := make([][]float32, len(rows))
		for i, r := range rows {
			out[i] = slices.Clone(r)
			vec.Scale(out[i], 10)
		}
		return out
	}
	base := scale(ds.Data)
	dup := append(base, base[:20]...) // rows 580… repeat rows 0…19
	// Rows in a 40-dimensional affine subspace: the model's leading 64
	// directions hold all of their spread.
	rng := rand.New(rand.NewSource(43))
	basis := make([][]float32, 40)
	for i := range basis {
		basis[i] = make([]float32, dim)
		for j := range basis[i] {
			basis[i][j] = float32(rng.NormFloat64())
		}
	}
	flat := make([][]float32, n)
	for r := range flat {
		flat[r] = make([]float32, dim)
		for j := range flat[r] {
			flat[r][j] = 3
		}
		for i, b := range basis {
			z := float32(rng.NormFloat64() / float64(i+1))
			for j := range b {
				flat[r][j] += z * b[j]
			}
		}
	}
	queries := map[string][][]float32{"in-distribution": scale(ds.Queries)}
	for _, shift := range []float64{2, 4} {
		ood, err := dataset.OODQueries(cfg, nq, shift, 5)
		if err != nil {
			t.Fatal(err)
		}
		queries[fmt.Sprintf("shift %v", shift)] = scale(ood)
	}
	opts := &Options{Seed: 2, HNSWM: 8, HNSWEfConstruction: 40, IVFNList: 8}
	for rowsName, rows := range map[string][][]float32{"duplicated rows": dup, "rows with no tail": flat} {
		qs := map[string][][]float32{"a row": {rows[5], rows[0], rows[n-1]}}
		if rowsName == "duplicated rows" {
			maps.Copy(qs, queries)
		}
		for _, kind := range []IndexKind{Flat, IVF, HNSW} {
			for _, rebased := range []bool{false, true} {
				ix, err := New(rows, kind, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ix.model == nil {
					t.Fatalf("%s %s: no model trained at construction", rowsName, kind)
				}
				if rebased {
					if err := ix.Enable(DDCRes, nil); err != nil {
						t.Fatal(err)
					}
				}
				budgets := map[string]int{"": 1}
				switch kind {
				case IVF:
					budgets = map[string]int{"nprobe 1": 1, "every list": ix.ivfIdx.NList()}
				case HNSW:
					budgets = map[string]int{"scan": ix.hnswIdx.ScanFrom()}
				}
				checkLossless(t, fmt.Sprintf("%s %s rebased=%v", rowsName, kind, rebased), ix, rows, qs, budgets)
			}
		}
	}
}

// checkLossless runs every query of qs at every budget and k on ix, with
// exact's bound and then without it, and compares. Budgets named "nprobe 1"
// scan part of the rows; the others scan them all.
func checkLossless(t *testing.T, name string, ix *Index, rows [][]float32, qs map[string][][]float32, budgets map[string]int) {
	t.Helper()
	n, d := int64(ix.Len()), int64(ix.Dim())
	type answer struct {
		q     []float32
		k     int
		every bool // the scan read every row
		hits  []Neighbor
		st    SearchStats
	}
	run := func() map[string]answer {
		out := map[string]answer{}
		for qn, list := range qs {
			for qi, q := range list {
				for bn, budget := range budgets {
					for _, k := range []int{1, 10, ix.Len() + 5} {
						hits, st, err := ix.SearchInto(nil, q, k, Exact, budget)
						if err != nil {
							t.Fatal(err)
						}
						out[fmt.Sprintf("%s q%d %s k%d", qn, qi, bn, k)] = answer{q, k, bn != "nprobe 1", hits, st}
					}
				}
			}
		}
		return out
	}
	pruned := run()
	ix.mu.RLock()
	exact := ix.modes[Exact].dco
	ix.mu.RUnlock()
	ix.installDCO(Exact, noPruneDCO{exact})
	ref := run()
	var ruledOut int64
	for key, got := range pruned {
		want := ref[key]
		if len(got.hits) != len(want.hits) {
			t.Fatalf("%s %s: %d hits, %d without the bound", name, key, len(got.hits), len(want.hits))
		}
		for i, h := range got.hits {
			if w := want.hits[i]; h.ID != w.ID || math.Float32bits(h.Distance) != math.Float32bits(w.Distance) {
				t.Fatalf("%s %s: hit %d is %+v, %+v without the bound", name, key, i, h, w)
			}
		}
		ruledOut += got.st.Pruned
		if !got.every {
			continue
		}
		truth, err := dataset.BruteForceKNN(rows, [][]float32{got.q}, got.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(got.hits))
		for i, h := range got.hits {
			ids[i] = h.ID
		}
		if !slices.Equal(sortedInts(ids), sortedInts(truth[0])) {
			t.Fatalf("%s %s: ids %v, brute force %v", name, key, ids, truth[0])
		}
		st := got.st
		dims := core.PrefixDim*st.Pruned + d*(st.Comparisons-st.Pruned)
		if st.Comparisons != n || st.ScanRate != float64(dims)/float64(st.Comparisons*d) {
			t.Fatalf("%s %s: %d comparisons at scan rate %v, want %d at %v", name, key, st.Comparisons, st.ScanRate, n, float64(dims)/float64(n*d))
		}
	}
	if ruledOut == 0 {
		t.Fatalf("%s: the bound ruled out no row", name)
	}
}

func sortedInts(a []int) []int {
	a = slices.Clone(a)
	slices.Sort(a)
	return a
}

// modelPins is the sha256 of every stream TestEnableReusesConstructionModel
// saves, per distance-kernel implementation (SIMDLevel), as written when
// Enable trained the model itself: re-basing onto the model construction
// trained must write the same bytes.
var modelPins = map[string]map[string]string{
	"avx2+fma": {
		"New/hnsw":   "c7d62bc96373357280f554866ffb3eaf58995ae85199dad3a591b014d9b86ea7",
		"New/flat":   "3420af6981bc5698bf54a77f83d00311bef29e74ca7ecbcad7c47d86bd74896a",
		"NewSharded": "dd9141677377d82fe82ce0fddb36a9f5525c072aca71d3a09a8251534749bea9",
		"NewMutable": "f3d29c5f9da0dc675af9e3dd45e8f4af470de9e14d53cdd130a660bfbef634d1",
	},
	"generic": {
		"New/hnsw":   "66ab13ad1252dcb1cc3b4331f149b4a92cf9f0a57dc4b6d6383c74e766652fb5",
		"New/flat":   "795a1679e391d8d1e83145d73493960bee2f0774b5bb176c22c58d97a219f966",
		"NewSharded": "cf40b0e6b29c0d4ad0a241af64e5088a2f94865b4ba097da62dd3b2b49cee9a0",
		"NewMutable": "67152efd42728839fd746ce21e1625a3bc069988f6fba9c1588d9c93069435e9",
	},
}

// TestEnableReusesConstructionModel checks that the model trained at
// construction is the one the first PCA mode re-bases onto, trained once:
// an Index re-bases onto its own model, a sharded and a mutable index onto
// their sharded one, and each saves the bytes it did when Enable trained
// the model. A raw mutable index compacted before Enable no longer has the
// model of its rows, so Enable trains one over the rows of the moment.
func TestEnableReusesConstructionModel(t *testing.T) {
	rows := fuzzRows(300, 80)
	opts := &Options{Seed: 3, HNSWM: 8, HNSWEfConstruction: 32, IVFNList: 8, DeltaD: 8}
	want, pinned := modelPins[SIMDLevel()]
	check := func(name string, ix interface {
		Enable(Mode, *Options) error
		Save(io.Writer) error
	}) {
		t.Helper()
		if err := ix.Enable(DDCRes, nil); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); pinned && got != want[name] {
			t.Errorf("%s: Save wrote sha256 %s, pinned %s", name, got, want[name])
		}
	}
	for _, kind := range []IndexKind{HNSW, Flat} {
		ix, err := New(rows, kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		model := ix.model
		if model == nil {
			t.Fatalf("%s: New trained no model", kind)
		}
		check("New/"+string(kind), ix)
		if _, basis := ix.rows(); basis != model {
			t.Errorf("%s: Enable re-based onto a model of its own", kind)
		}
	}
	sx, err := NewSharded(rows, HNSW, 3, &ShardOptions{Index: opts})
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range sx.shards {
		if sx.model == nil || sh.model != sx.model {
			t.Fatalf("shard %d: model %p, the sharded index's %p", s, sh.model, sx.model)
		}
	}
	check("NewSharded", sx)
	for s, sh := range sx.shards {
		if _, basis := sh.rows(); basis.Rotation != sx.model.Rotation {
			t.Errorf("shard %d: re-based onto a rotation of its own", s)
		}
	}
	newMutable := func() *MutableIndex {
		mx, err := NewMutable(rows[:250], HNSW, 2, &MutableOptions{Index: opts, DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows[250:] {
			if _, err := mx.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		return mx
	}
	mx := newMutable()
	defer mx.Close()
	if mx.model == nil {
		t.Fatal("NewMutable trained no model")
	}
	check("NewMutable", mx)

	compacted := newMutable()
	defer compacted.Close()
	if _, err := compacted.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, err := compacted.Compact(); err != nil {
		t.Fatal(err)
	}
	if compacted.model != nil {
		t.Fatal("a compaction of shards in no basis kept the sharded model")
	}
	fresh, err := pca.Train(pca.Config{}, compacted.mats()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	for s, sh := range compacted.shards {
		if _, basis := sh.rows(); !vec.Equal(basis.Rotation.Flat(), fresh.Rotation.Flat()) || !vec.Equal(basis.Mean, fresh.Mean) {
			t.Errorf("compacted shard %d: re-based onto a model other than pca.Train over the rows of the moment", s)
		}
	}
}

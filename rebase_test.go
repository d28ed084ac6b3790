package resinfer

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/pca"
	"resinfer/internal/vec"
)

// saveLoad round-trips ix through Save and Load.
func saveLoad(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oneCopy asserts that ix holds its rows once: exact, ddc-res and, for
// HNSW, the graph read the index's own matrix, which lies in the basis.
func oneCopy(t *testing.T, ix *Index) {
	t.Helper()
	rows, basis := ix.rows()
	if basis == nil {
		t.Fatal("ddc-res is on but the index was not re-based")
	}
	ix.mu.RLock()
	exact := ix.modes[Exact].dco.(*core.Exact)
	res := ix.modes[DDCRes].dco.(*ddc.Res)
	graph := ix.hnswIdx
	ix.mu.RUnlock()
	if exact.Data() != rows || res.Rotated() != rows {
		t.Errorf("%s: exact reads %p, ddc-res %p, the index holds %p", ix.kind, exact.Data(), res.Rotated(), rows)
	}
	if exact.NewEvaluator().(core.RotatingEvaluator).Rotation() != basis.Rotation || res.Model() != basis {
		t.Errorf("%s: exact and ddc-res rotate through other models than the index's basis", ix.kind)
	}
	if graph != nil && graph.Data() != rows {
		t.Errorf("%s: the graph reads %p, the index holds %p", ix.kind, graph.Data(), rows)
	}
}

// ids lists the IDs of ns.
func ids(ns []Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

// liveHeap is the live heap after garbage collection, in bytes.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// enableCostsExtraBytes enables ddc-res on eng and asserts that the live
// heap grew by no more than the comparators' ExtraBytes, plus 10 %: the
// rotated rows replace the rows they were rotated from.
func enableCostsExtraBytes(t *testing.T, eng interface{ Enable(Mode, *Options) error }, shards []*Index) {
	t.Helper()
	before := liveHeap()
	if err := eng.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	grew := liveHeap() - before
	var extra int64
	for _, sh := range shards {
		extra += sh.modes[DDCRes].dco.ExtraBytes()
	}
	if float64(grew) > 1.1*float64(extra) {
		t.Errorf("Enable(ddc-res) grew the live heap by %d bytes, ExtraBytes is %d", grew, extra)
	}
	runtime.KeepAlive(eng)
}

// TestRowsStoredOnce: an index with ddc-res enabled holds its rows once,
// in the PCA basis. Exact, ddc-res and the graph read one matrix — as built,
// after a compaction, and after Save → Load — and Enable costs the live
// heap what ExtraBytes reports, not another n·D floats.
func TestRowsStoredOnce(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "rows-once", N: 1600, Dim: 128, Queries: 8, VE32: 0.7, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Seed: 1, HNSWEfConstruction: 40}
	for _, kind := range []IndexKind{HNSW, IVF, Flat} {
		t.Run(string(kind), func(t *testing.T) {
			ix, err := New(ds.Data, kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			enableCostsExtraBytes(t, ix, []*Index{ix})
			oneCopy(t, ix)
			oneCopy(t, saveLoad(t, ix))
		})
	}
	t.Run("sharded", func(t *testing.T) {
		sx, err := NewSharded(ds.Data, HNSW, 2, &ShardOptions{Index: opts})
		if err != nil {
			t.Fatal(err)
		}
		enableCostsExtraBytes(t, sx, sx.shards)
		var buf bytes.Buffer
		if err := sx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSharded(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*ShardedIndex{sx, loaded} {
			for _, sh := range x.shards {
				oneCopy(t, sh)
			}
		}
	})
	t.Run("mutable", func(t *testing.T) {
		mx, err := NewMutable(ds.Data[:1200], HNSW, 2, &MutableOptions{Index: opts, DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer mx.Close()
		enableCostsExtraBytes(t, mx, mx.shards)
		for _, row := range ds.Data[1200:] {
			if _, err := mx.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mx.Delete(3); err != nil {
			t.Fatal(err)
		}
		if n, err := mx.Compact(); err != nil || n != 2 {
			t.Fatalf("Compact rebuilt %d shards, err %v; want 2", n, err)
		}
		var buf bytes.Buffer
		if err := mx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadMutable(&buf, &MutableOptions{DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		for _, x := range []*MutableIndex{mx, loaded} {
			for _, sh := range x.shards {
				oneCopy(t, sh)
			}
		}
	})
}

// TestConcurrentEnableTrainsOnce: Enable serializes. Four goroutines enable
// ddc-res while two search in exact and ddc-res: every Enable returns with
// the one model the first of them installed, and every hit scores its true
// distance — before, during and after the re-base.
func TestConcurrentEnableTrainsOnce(t *testing.T) {
	ds, _ := apiFixtures(t)
	rows := ds.Data[:800]
	opts := &Options{Seed: 2, HNSWEfConstruction: 40}
	ix, err := New(rows, HNSW, opts)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewSharded(rows, HNSW, 2, &ShardOptions{Index: opts})
	if err != nil {
		t.Fatal(err)
	}
	type engine interface {
		Enable(Mode, *Options) error
		Search(q []float32, k int, mode Mode, budget int) ([]Neighbor, error)
	}
	for name, c := range map[string]struct {
		eng    engine
		shards []*Index
	}{"index": {ix, []*Index{ix}}, "sharded": {sx, sx.shards}} {
		t.Run(name, func(t *testing.T) {
			models := func() []*pca.Model {
				out := make([]*pca.Model, len(c.shards))
				for s, sh := range c.shards {
					out[s] = sh.rotationOf(DDCRes)
				}
				return out
			}
			stop := make(chan struct{})
			var searchers sync.WaitGroup
			for _, mode := range []Mode{Exact, DDCRes} {
				searchers.Add(1)
				go func(mode Mode) {
					defer searchers.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := ds.Queries[i%len(ds.Queries)]
						ns, err := c.eng.Search(q, 5, mode, 40)
						if err != nil {
							if strings.Contains(err.Error(), "not enabled") {
								continue // ddc-res is not installed yet
							}
							t.Error(err)
							return
						}
						for _, n := range ns {
							if want := vec.L2Sq64(q, rows[n.ID]); math.Abs(float64(n.Distance)-want) > 1e-3*want {
								t.Errorf("%s: id %d scored %v, true distance %v", mode, n.ID, n.Distance, want)
								return
							}
						}
					}
				}(mode)
			}
			seen := make([][]*pca.Model, 4)
			var enablers sync.WaitGroup
			for g := range seen {
				enablers.Add(1)
				go func(g int) {
					defer enablers.Done()
					if err := c.eng.Enable(DDCRes, nil); err != nil {
						t.Error(err)
						return
					}
					seen[g] = models()
				}(g)
			}
			enablers.Wait()
			close(stop)
			searchers.Wait()
			for g := range seen {
				for s := range seen[g] {
					if seen[g][s] != seen[0][s] {
						t.Errorf("shard %d: Enable %d returned with model %p, Enable 0 with %p", s, g, seen[g][s], seen[0][s])
					}
				}
			}
		})
	}
}

// TestExactOnRebasedIndexMatchesPlain: the exact mode answers the same on a
// re-based index as on its twin with no PCA mode, under every metric and
// index kind; two neighbours may swap only where their distances agree to
// 1e-5 (relative), the rounding a rotation adds.
func TestExactOnRebasedIndexMatchesPlain(t *testing.T) {
	ds, _ := apiFixtures(t)
	rows := ds.Data[:1000]
	for _, mk := range []MetricKind{L2, Cosine, InnerProduct} {
		for _, kind := range []IndexKind{HNSW, IVF, Flat} {
			opts := &Options{Seed: 4, Metric: mk, HNSWEfConstruction: 40}
			plain, err := New(rows, kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			rebased, err := New(rows, kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := rebased.Enable(DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			for qi, q := range ds.Queries {
				want, err := plain.Search(q, 10, Exact, 60)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rebased.Search(q, 10, Exact, 60)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s query %d: %d hits, want %d", mk, kind, qi, len(got), len(want))
				}
				for i := range want {
					d, w := float64(got[i].Distance), float64(want[i].Distance)
					if math.Abs(d-w) > 1e-5*math.Abs(w) {
						t.Errorf("%s/%s query %d rank %d: %+v on the re-based index, %+v on the plain one", mk, kind, qi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEnableOrderIndependent enables every mode in the order of the paper's
// comparison and in the reverse, so the re-base comes first in one and after
// adsampling and ddc-opq have derived their rows in the other. Every mode
// keeps recall 0.99 against exact, and Save → Load → Save is byte-stable.
func TestEnableOrderIndependent(t *testing.T) {
	ds, _ := apiFixtures(t)
	order := []Mode{DDCRes, ADSampling, DDCPCA, DDCOPQ}
	for _, reverse := range []bool{false, true} {
		modes := append([]Mode(nil), order...)
		if reverse {
			for i, j := 0, len(modes)-1; i < j; i, j = i+1, j-1 {
				modes[i], modes[j] = modes[j], modes[i]
			}
		}
		ix, err := New(ds.Data[:800], Flat, &Options{Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			if err := ix.EnableWithTraining(m, ds.Train[:30], nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range modes {
			hits := 0
			for _, q := range ds.Queries {
				exact, err := ix.Search(q, 10, Exact, 0)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.Search(q, 10, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				hits += gtOverlap(ids(exact), ids(got))
			}
			if recall := float64(hits) / float64(10*len(ds.Queries)); recall < 0.99 {
				t.Errorf("order %v: %s recall@10 %.4f against exact, want >= 0.99", modes, m, recall)
			}
		}
		var first, second bytes.Buffer
		if err := ix.Save(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("order %v: Save → Load → Save wrote %d bytes, then %d different ones", modes, first.Len(), second.Len())
		}
	}
}

// TestLoadRejectsV2: version 3 is the only index, sharded and mutable
// format read; a version 2 stream fails with an error that names both
// versions.
func TestLoadRejectsV2(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:200], Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewSharded(ds.Data[:200], Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := NewMutable(ds.Data[:200], Flat, 2, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	for _, c := range []struct {
		v3   string
		save func(io.Writer) error
		load func(io.Reader) error
	}{
		{"RESINFER3", ix.Save, func(r io.Reader) error { _, err := Load(r); return err }},
		{"RESSHARD3", sx.Save, func(r io.Reader) error { _, err := LoadSharded(r); return err }},
		{"RESSTRM3", mx.Save, func(r io.Reader) error {
			_, err := LoadMutable(r, &MutableOptions{DisableAutoCompact: true})
			return err
		}},
	} {
		var buf bytes.Buffer
		if err := c.save(&buf); err != nil {
			t.Fatal(err)
		}
		v2 := strings.TrimSuffix(c.v3, "3") + "2"
		err := c.load(bytes.NewReader(bytes.Replace(buf.Bytes(), []byte(c.v3), []byte(v2), 1)))
		if err == nil || !strings.Contains(err.Error(), v2) || !strings.Contains(err.Error(), c.v3) {
			t.Errorf("loading a %s stream: %v, want an error naming %s and %s", v2, err, v2, c.v3)
		}
	}
}

package resinfer

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"resinfer/internal/core"
)

// The three loaders below decode bytes that arrive from disk or, through
// replica.Join's checkpoint fetch, from a peer. Each fuzz target holds its
// loader to the same contract on arbitrary input: it returns — no panic, no
// hang — having allocated in proportion to the bytes it was given, and an
// input it accepts answers one Search per enabled mode without panicking.

// fuzzRows is a small deterministic dataset: seed files must stay a few
// KiB so the fuzzer's mutations reach every section of them.
func fuzzRows(n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64()) / float32(j+1)
		}
	}
	return rows
}

// wideRows have more coordinates than exact's prefix bound reads, and at
// least as many rows as coordinates: an index of them in no basis is a seed
// whose loading trains the index's model over the loaded rows.
var wideRows = fuzzRows(core.PrefixDim+4, core.PrefixDim+2)

// saveBytes is what ix.Save writes.
func saveBytes(f *testing.F, ix interface{ Save(io.Writer) error }) []byte {
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzOptions keeps the seed indexes small: a low-degree graph and a
// projection step that fits six dimensions.
func fuzzOptions(metric MetricKind) *Options {
	return &Options{Seed: 3, Metric: metric, HNSWM: 4, HNSWEfConstruction: 16, DeltaD: 2}
}

// fuzzEnable turns on the two self-calibrating comparators. ddc-res
// re-bases the index, so every seed below is a RESINFER3 stream whose rows
// lie in a PCA basis the stream carries: re-based InnerProduct HNSW and IVF
// indexes, sharded ones, and mutable ones with memtable rows and tombstones.
// A sharded seed writes each mode's rotation once and back-references it
// from the other shard, so the fuzzer mutates back-references too.
func fuzzEnable(f *testing.F, ix interface{ Enable(Mode, *Options) error }) {
	for _, m := range []Mode{DDCRes, ADSampling} {
		if err := ix.Enable(m, nil); err != nil {
			f.Fatal(err)
		}
	}
}

// addSeeds adds file and truncations of it to the corpus.
func addSeeds(f *testing.F, file []byte) {
	f.Add(file)
	for _, cut := range []int{len(file) - 1, 3 * len(file) / 4, len(file) / 2, len(file) / 4, 12} {
		f.Add(file[:cut])
	}
}

// fuzzEngine is what the three index types share.
type fuzzEngine interface {
	QueryDim() int
	Modes() []Mode
	SearchInto(dst []Neighbor, q []float32, k int, mode Mode, budget int) ([]Neighbor, SearchStats, error)
}

// checkLoad runs load on data under the contract above. A loader that spins
// fails the watchdog instead of stalling the fuzzer.
func checkLoad(t *testing.T, data []byte, load func(io.Reader) (fuzzEngine, func(), error)) {
	done := make(chan struct{})
	var grew uint64
	go func() {
		defer close(done)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, closeEng, err := load(bytes.NewReader(data))
		if err == nil {
			q := make([]float32, eng.QueryDim())
			for i := range q {
				q[i] = 1 / float32(i+1)
			}
			for _, m := range eng.Modes() {
				// An error is a fine answer (a loaded shard may lack the
				// mode); a panic is the finding.
				_, _, _ = eng.SearchInto(nil, q, 3, m, 8)
			}
			closeEng()
		}
		runtime.ReadMemStats(&after)
		grew = after.TotalAlloc - before.TotalAlloc
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("loading %d bytes did not return within 20 s", len(data))
	}
	// Proportional, with room for what a loaded index legitimately builds
	// around its bytes: per-row map entries of a mutable index, evaluator
	// pools and fan-out scratch.
	if limit := uint64(4<<20 + 64*len(data)); grew > limit {
		t.Fatalf("loading %d bytes allocated %d (limit %d)", len(data), grew, limit)
	}
}

func FuzzLoad(f *testing.F) {
	rows := fuzzRows(60, 6)
	for _, metric := range []MetricKind{L2, InnerProduct} {
		for _, kind := range []IndexKind{Flat, HNSW, IVF} {
			ix, err := New(rows, kind, fuzzOptions(metric))
			if err != nil {
				f.Fatal(err)
			}
			fuzzEnable(f, ix)
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				f.Fatal(err)
			}
			addSeeds(f, buf.Bytes())
		}
	}
	// Inverted lists over 50 rows, then 60 rows: Load must refuse it.
	addSeeds(f, coverStream(f, IVF, rows[:50], rows))
	wide, err := New(wideRows, Flat, fuzzOptions(L2))
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, saveBytes(f, wide))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data, func(r io.Reader) (fuzzEngine, func(), error) {
			ix, err := Load(r)
			return ix, func() {}, err
		})
	})
}

func FuzzLoadSharded(f *testing.F) {
	rows := fuzzRows(60, 6)
	for _, metric := range []MetricKind{L2, InnerProduct} {
		for _, kind := range []IndexKind{Flat, HNSW, IVF} {
			sx, err := NewSharded(rows, kind, 2, &ShardOptions{Index: fuzzOptions(metric)})
			if err != nil {
				f.Fatal(err)
			}
			fuzzEnable(f, sx)
			var buf bytes.Buffer
			if err := sx.Save(&buf); err != nil {
				f.Fatal(err)
			}
			addSeeds(f, buf.Bytes())
		}
	}
	wide, err := NewSharded(wideRows, Flat, 2, &ShardOptions{Index: fuzzOptions(L2)})
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, saveBytes(f, wide))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data, func(r io.Reader) (fuzzEngine, func(), error) {
			sx, err := LoadSharded(r)
			return sx, func() {}, err
		})
	})
}

func FuzzLoadMutable(f *testing.F) {
	rows := fuzzRows(70, 6)
	for _, metric := range []MetricKind{L2, InnerProduct} {
		for _, kind := range []IndexKind{Flat, HNSW, IVF} {
			mx, err := NewMutable(rows[:60], kind, 2, &MutableOptions{Index: fuzzOptions(metric), DisableAutoCompact: true})
			if err != nil {
				f.Fatal(err)
			}
			fuzzEnable(f, mx)
			// Memtable rows, tombstones over base rows and over a memtable
			// row, and an upsert that shadows a base row.
			for _, row := range rows[60:] {
				if _, err := mx.Add(row); err != nil {
					f.Fatal(err)
				}
			}
			for _, id := range []int{0, 7, 31, 64} {
				if _, err := mx.Delete(id); err != nil {
					f.Fatal(err)
				}
			}
			if _, err := mx.Upsert(5, rows[69]); err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := mx.Save(&buf); err != nil {
				f.Fatal(err)
			}
			mx.Close()
			addSeeds(f, buf.Bytes())
		}
	}
	wide, err := NewMutable(wideRows, Flat, 2, &MutableOptions{Index: fuzzOptions(L2), DisableAutoCompact: true})
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, saveBytes(f, wide))
	wide.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data, func(r io.Reader) (fuzzEngine, func(), error) {
			mx, err := LoadMutable(r, &MutableOptions{DisableAutoCompact: true})
			if err != nil {
				return nil, nil, err
			}
			return mx, mx.Close, nil
		})
	})
}

package resinfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

// buildRichIndex constructs an HNSW index with all five modes enabled.
func buildRichIndex(t testing.TB) (*Index, [][]float32) {
	ds, _ := apiFixtures(t)
	data := ds.Data[:1200]
	ix, err := New(data, HNSW, &Options{Seed: 11, HNSWEfConstruction: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(ADSampling, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableWithTraining(DDCPCA, ds.Train[:30], nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableWithTraining(DDCOPQ, ds.Train[:30], nil); err != nil {
		t.Fatal(err)
	}
	return ix, data
}

// sameResults asserts two indexes return identical neighbors for a query
// under every mode.
func sameResults(t *testing.T, a, b *Index, q []float32) {
	t.Helper()
	for _, mode := range []Mode{Exact, ADSampling, DDCRes, DDCPCA, DDCOPQ} {
		ra, err := a.Search(q, 10, mode, 40)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		rb, err := b.Search(q, 10, mode, 40)
		if err != nil {
			t.Fatalf("%s (loaded): %v", mode, err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("%s: result count %d vs %d", mode, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].ID != rb[i].ID || ra[i].Distance != rb[i].Distance {
				t.Fatalf("%s: result %d differs: %+v vs %+v", mode, i, ra[i], rb[i])
			}
		}
	}
}

func TestSaveLoadHNSWRoundTrip(t *testing.T) {
	ix, _ := buildRichIndex(t)
	ds, _ := apiFixtures(t)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != HNSW || loaded.Len() != ix.Len() || loaded.Dim() != ix.Dim() {
		t.Fatal("loaded metadata mismatch")
	}
	if len(loaded.Modes()) != 5 {
		t.Fatalf("loaded modes = %v", loaded.Modes())
	}
	for _, q := range ds.Queries[:5] {
		sameResults(t, ix, loaded, q)
	}
}

func TestSaveLoadIVFRoundTrip(t *testing.T) {
	ds, _ := apiFixtures(t)
	data := ds.Data[:1500]
	ix, err := New(data, IVF, &Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != IVF {
		t.Fatal("kind")
	}
	for _, q := range ds.Queries[:5] {
		for _, mode := range []Mode{Exact, DDCRes} {
			ra, err := ix.Search(q, 10, mode, 8)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := loaded.Search(q, 10, mode, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s: results differ after IVF round trip", mode)
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:500], HNSW, &Options{Seed: 17, HNSWEfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.ri")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 500 {
		t.Fatal("length mismatch after file round trip")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.ri")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:300], HNSW, &Options{Seed: 19, HNSWEfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Wrong magic.
	bad := append([]byte("XXXXXXXXX"), good[9:]...)
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncation at several points.
	for _, cut := range []int{10, len(good) / 2, len(good) - 5} {
		if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("expected truncation error at %d", cut)
		}
	}
	// A query dimensionality the stored rows do not have: searches size
	// the caller's query by one and the comparators' scratch by the other.
	userDim := len(fileMagic) + 8 + len(HNSW) + 8 + len(L2) // after magic, kind, metric
	lying := bytes.Clone(good)
	binary.LittleEndian.PutUint64(lying[userDim:], 1<<40)
	if _, err := Load(bytes.NewReader(lying)); err == nil {
		t.Fatal("expected query-dimensionality error")
	}
}

func TestSaveDeterministic(t *testing.T) {
	ix, _ := buildRichIndex(t)
	var a, b bytes.Buffer
	if err := ix.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save must be deterministic for the same index")
	}
}

// TestSaveBytesReproducible: at GOMAXPROCS 2, three builds from one seed
// save one stream, for a single HNSW index and for a four-shard one whose
// shards build side by side — the graph does not depend on how the build's
// goroutines were scheduled.
func TestSaveBytesReproducible(t *testing.T) {
	ds, _ := apiFixtures(t)
	data := ds.Data[:1200]
	opts := &Options{Seed: 11, HNSWEfConstruction: 60}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	type saver interface {
		Enable(Mode, *Options) error
		Save(io.Writer) error
	}
	for name, build := range map[string]func() (saver, error){
		"New":          func() (saver, error) { return New(data, HNSW, opts) },
		"NewSharded/4": func() (saver, error) { return NewSharded(data, HNSW, 4, &ShardOptions{Index: opts}) },
	} {
		var want [sha256.Size]byte
		for run := 0; run < 3; run++ {
			ix, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Enable(DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(buf.Bytes()); run == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: build %d saved sha256 %x, build 0 %x", name, run, got[:6], want[:6])
			}
		}
	}
}

func TestSaveLoadSaveStable(t *testing.T) {
	// Saving a LOADED index must produce the same stream: the decode path
	// must retain the comparator tuning (notably ADSampling's epsilon and
	// DeltaD) instead of re-serializing zero options.
	ix, _ := buildRichIndex(t)
	var first bytes.Buffer
	if err := ix.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save -> load -> save must reproduce the identical stream")
	}
	reloaded, err := Load(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := apiFixtures(t)
	sameResults(t, loaded, reloaded, ds.Queries[0])
}

func TestSaveLoadPreservesADSamplingTuning(t *testing.T) {
	// Enable with per-call (non-default) ADSampling tuning: the stream
	// must record the comparator's effective parameters, not ix.opts.
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:800], Flat, &Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(ADSampling, &Options{Seed: 21, ADSEpsilon0: 5, DeltaD: 16}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries {
		a, sa, err := ix.SearchInto(nil, q, 10, ADSampling, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := loaded.SearchInto(nil, q, 10, ADSampling, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("query %d: stats diverge after reload: %+v vs %+v", qi, sa, sb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d hit %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), second.Bytes()) {
		t.Fatal("re-saving a loaded index with custom ADSampling tuning must reproduce the stream")
	}
}

// TestLoadAnswersBitIdentical: a saved-then-loaded index answers every
// mode with the top-10 IDs and float distances of the index it was saved
// from, on every index kind, whole and in four shards whose comparators
// share one rotation per mode.
func TestLoadAnswersBitIdentical(t *testing.T) {
	ds, _ := apiFixtures(t)
	data, train := ds.Data[:1024], ds.Train[:30] // 256 rows a shard: one per OPQ centroid
	modes := []Mode{Exact, DDCRes, DDCPCA, ADSampling, DDCOPQ}
	type engine interface {
		EnableWithTraining(Mode, [][]float32, *Options) error
		Save(io.Writer) error
		SearchInto([]Neighbor, []float32, int, Mode, int) ([]Neighbor, SearchStats, error)
	}
	for _, kind := range []IndexKind{Flat, HNSW, IVF} {
		opts := &Options{Seed: 5, HNSWEfConstruction: 40, IVFNList: 16}
		for name, build := range map[string]func() (engine, func(io.Reader) (engine, error), error){
			"Index": func() (engine, func(io.Reader) (engine, error), error) {
				ix, err := New(data, kind, opts)
				return ix, func(r io.Reader) (engine, error) { return Load(r) }, err
			},
			"ShardedIndex/4": func() (engine, func(io.Reader) (engine, error), error) {
				sx, err := NewSharded(data, kind, 4, &ShardOptions{Index: opts})
				return sx, func(r io.Reader) (engine, error) { return LoadSharded(r) }, err
			},
		} {
			ix, load, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range modes[1:] {
				if err := ix.EnableWithTraining(m, train, nil); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := load(&buf)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, name, err)
			}
			for _, m := range modes {
				for qi, q := range ds.Queries[:5] {
					want, _, err := ix.SearchInto(nil, q, 10, m, 40)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := loaded.SearchInto(nil, q, 10, m, 40)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s %s %s query %d: %d hits after loading, %d before", kind, name, m, qi, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || math.Float32bits(got[i].Distance) != math.Float32bits(want[i].Distance) {
							t.Fatalf("%s %s %s query %d hit %d: %+v after loading, %+v before", kind, name, m, qi, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

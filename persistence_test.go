package resinfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"resinfer/internal/hnsw"
	"resinfer/internal/ivf"
	"resinfer/internal/persist"
	"resinfer/internal/store"
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

// savePins is the sha256 of every stream TestSaveBytesPinned writes, per
// distance-kernel implementation (SIMDLevel): the rows' floats and the
// graphs built from them depend on the kernels' rounding.
var savePins = map[string]map[string]string{
	"avx2+fma": {
		"hnsw/l2/0": "de5499803a46198987bd8a27f69dd9d32e8aa864ce2eb99756c7507b873b0e42",
		"hnsw/l2/2": "12b33279c28e945295a9c5e71fa8ceda9581406e06f6f133b3b919379e6914d6",
		"ivf/l2/0":  "3833066bc5fadd3bea9b7bb5c272bcc59c34f6374991bda1d8825d28c68186e6",
		"ivf/l2/2":  "4a8c33a9ab6a426c26e6dc47a809cb7229fe24663147bbf8b76eb40f333e95b1",
		"flat/l2/0": "fe429515ae8dee64af9497a8b9c518c4960918cfacf2e0f3c173d032c35ccb8e",
		"flat/l2/2": "44ad58ea33377046cba56f0ba8ab966d696c5859eeb0041936fef2277e755e37",
		"hnsw/ip/0": "bbcf0105f9cf22f363aab9a7b7aac4cf3e038d28a53f9726f824e2e5941c575e",
		"hnsw/ip/2": "0f0b5ee025b01ec598fd6628103492ade348015732fe5b887046eab3898f7351",
		"ivf/ip/0":  "4f4a540f713fd79a01f8db9a5bf4a1ddd12950d255bfae051293b1d609e7b9fd",
		"ivf/ip/2":  "0cab32a875dccd3df7f21650f19a4c94366d6b53b705bcf2b7904f8729d4cabb",
		"flat/ip/0": "9ed5bb7d7c10c9c6f09fed3b7df2c4409ebe720ae70c8e81bfdde18604d3510f",
		"flat/ip/2": "60731e6ebca171d17e09788a2e98df1e96df1ef0b1852f92b86a852d2e3cabb1",
		"sharded":   "115fa6a92daf737242703e2d2644ffdb4f3218aa539798ad38d0ff4a009552cb",
		"mutable":   "58dcde82708c052d4eb7101d8df929dbb5e745723b8b2a25ddc1df5ca108bdd9",
	},
	"generic": {
		"hnsw/l2/0": "de5499803a46198987bd8a27f69dd9d32e8aa864ce2eb99756c7507b873b0e42",
		"hnsw/l2/2": "50be0c3d7b05b687d8cf710c890acfe4c732f5d0b3f1b98942ef105e3187d028",
		"ivf/l2/0":  "3833066bc5fadd3bea9b7bb5c272bcc59c34f6374991bda1d8825d28c68186e6",
		"ivf/l2/2":  "99dbed2845f88a3202ef46ab50698872de704d1d381ff320a57e630066d223f9",
		"flat/l2/0": "fe429515ae8dee64af9497a8b9c518c4960918cfacf2e0f3c173d032c35ccb8e",
		"flat/l2/2": "e0e3d2d449a309166cb2f8ee9a6253e38644f8e69dab023aea179f92d8a2f197",
		"hnsw/ip/0": "bbcf0105f9cf22f363aab9a7b7aac4cf3e038d28a53f9726f824e2e5941c575e",
		"hnsw/ip/2": "e364d322159b7c83c56f4fb8f1b14fd961f193d2aaf1c613b79c4703635b9b60",
		"ivf/ip/0":  "4f4a540f713fd79a01f8db9a5bf4a1ddd12950d255bfae051293b1d609e7b9fd",
		"ivf/ip/2":  "fb7c872e63996754000335df91426279ed358c9a4f6eb699387908cf7cb5d99e",
		"flat/ip/0": "9ed5bb7d7c10c9c6f09fed3b7df2c4409ebe720ae70c8e81bfdde18604d3510f",
		"flat/ip/2": "ca9741260056991ccb50aa0b1eda4db5b35e6ed23c324ee10a3a840a0af4b6da",
		"sharded":   "f5ca28cb68782b7bdf1f90ce42bd63d4a2fdad2b418187488b6b854f81f7eac8",
		"mutable":   "4c9bb03829279dd15d82c545a978aec490097a7c1b3120106bc7a11c4cf55643",
	},
}

// TestSaveBytesPinned pins the bytes Save writes for every index kind ×
// metric × {exact only, ddc-res + adsampling}, and for one sharded and one
// mutable index: a refactor of the codecs must not move a byte.
func TestSaveBytesPinned(t *testing.T) {
	want, ok := savePins[SIMDLevel()]
	if !ok {
		t.Skipf("no pinned streams for kernel level %s", SIMDLevel())
	}
	rows := fuzzRows(400, 16)
	opts := func(mk MetricKind) *Options {
		return &Options{Seed: 3, Metric: mk, HNSWM: 8, HNSWEfConstruction: 32, IVFNList: 8, DeltaD: 8}
	}
	type saver interface {
		Enable(Mode, *Options) error
		Save(io.Writer) error
	}
	check := func(name string, ix saver, modes ...Mode) {
		t.Helper()
		for _, m := range modes {
			if err := ix.Enable(m, nil); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[name] {
			t.Errorf("%s: Save wrote sha256 %s, pinned %s", name, got, want[name])
		}
	}
	for _, mk := range []MetricKind{L2, InnerProduct} {
		for _, kind := range []IndexKind{HNSW, IVF, Flat} {
			for _, modes := range [][]Mode{nil, {DDCRes, ADSampling}} {
				ix, err := New(rows, kind, opts(mk))
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/%s/%d", kind, mk, len(modes)), ix, modes...)
			}
		}
	}
	sx, err := NewSharded(rows, HNSW, 2, &ShardOptions{Index: opts(L2)})
	if err != nil {
		t.Fatal(err)
	}
	check("sharded", sx, DDCRes)
	mx, err := NewMutable(rows[:350], HNSW, 2, &MutableOptions{Index: opts(L2), DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	for _, row := range rows[350:] {
		if _, err := mx.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mx.Delete(3); err != nil {
		t.Fatal(err)
	}
	check("mutable", mx, DDCRes)
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

// coverStream writes a RESINFER3 stream by hand: kind's structure built
// over the rows of over, then rows as the index's rows, no basis and no
// modes. Save cannot write one whose two disagree; a file on disk can.
func coverStream(tb testing.TB, kind IndexKind, over, rows [][]float32) []byte {
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	pw.Magic(fileMagic)
	pw.String(string(kind))
	pw.String(string(L2))
	pw.Int(len(rows[0]))
	switch kind {
	case HNSW:
		g, err := hnsw.Build(store.MustFromRows(over), hnsw.Config{M: 4, EfConstruction: 16, Seed: 3})
		if err != nil {
			tb.Fatal(err)
		}
		g.Encode(pw)
	case IVF:
		lists, err := ivf.Build(store.MustFromRows(over), ivf.Config{NList: 4, Seed: 3})
		if err != nil {
			tb.Fatal(err)
		}
		lists.Encode(pw)
	}
	store.MustFromRows(rows).Encode(pw)
	pw.Bool(false)
	pw.Int(0)
	if err := pw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsStructureNotCoveringRows: a graph or inverted lists over
// another node count, or another dimensionality, than the rows behind them
// fail Load. An IVF stream with lists over 50 rows and 60 rows used to load
// and then fail every search.
func TestLoadRejectsStructureNotCoveringRows(t *testing.T) {
	rows := fuzzRows(60, 6)
	wide := fuzzRows(50, 7)
	for _, kind := range []IndexKind{HNSW, IVF} {
		if _, err := Load(bytes.NewReader(coverStream(t, kind, rows[:50], rows[:50]))); err != nil {
			t.Fatalf("%s over its own rows: %v", kind, err)
		}
		for name, c := range map[string]struct{ over, rows [][]float32 }{
			"50 nodes, 60 rows":       {rows[:50], rows},
			"60 nodes, 50 rows":       {rows, rows[:50]},
			"6-d structure, 7-d rows": {rows[:50], wide},
		} {
			ix, err := Load(bytes.NewReader(coverStream(t, kind, c.over, c.rows)))
			if err == nil {
				t.Errorf("%s, %s: Load accepted the stream (Len %d)", kind, name, ix.Len())
			}
		}
	}
}

package resinfer

// Streaming-ingestion pin-downs: mutable searches must equal an exact
// brute-force scan over the live row set (base segments minus tombstones
// and shadowed rows, plus memtables), IDs must be stable across
// compaction, a mid-compaction state must persist losslessly, and — under
// `go test -race` — searches must stay exact with zero failures while
// compaction hot-swaps shard bases underneath them.

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"resinfer/internal/vec"
)

// liveModel is the reference corpus: the id → vector map a correct
// mutable index must behave as.
type liveModel map[int][]float32

func (lm liveModel) clone() liveModel {
	out := make(liveModel, len(lm))
	for id, v := range lm {
		out[id] = v
	}
	return out
}

// exactTopK brute-force ranks the model by the same merge key the index
// uses (squared L2 for L2, negated dot for InnerProduct) with the same
// kernels, so distances compare bit-for-bit.
func (lm liveModel) exactTopK(q []float32, k int, metric MetricKind) []Neighbor {
	out := make([]Neighbor, 0, len(lm))
	for id, v := range lm {
		var key float32
		if metric == InnerProduct {
			key = -vec.Dot(q, v)
		} else {
			key = vec.L2Sq(q, v)
		}
		out = append(out, Neighbor{ID: id, Distance: key})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func randRows(rng *rand.Rand, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()
		}
	}
	return rows
}

// assertExact compares a mutable search against the model scan. Ties in
// distance can order arbitrarily between index and model, so equality is
// checked on the distance sequence and on the ID sets per distance.
func assertExact(t testing.TB, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d hits, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Distance != want[i].Distance {
			t.Fatalf("hit %d: distance %v, want %v\n got: %v\nwant: %v",
				i, got[i].Distance, want[i].Distance, got, want)
		}
	}
	gotIDs := map[int]bool{}
	wantIDs := map[int]bool{}
	for i := range got {
		gotIDs[got[i].ID] = true
		wantIDs[want[i].ID] = true
	}
	for id := range wantIDs {
		if !gotIDs[id] {
			t.Fatalf("missing id %d\n got: %v\nwant: %v", id, got, want)
		}
	}
}

const mutDim = 24

func buildMutable(t testing.TB, n, shards int, opts *MutableOptions) (*MutableIndex, liveModel, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	data := randRows(rng, n, mutDim)
	mx, err := NewMutable(data, Flat, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	model := liveModel{}
	for i, v := range data {
		model[i] = v
	}
	return mx, model, rng
}

func TestMutableAddDeleteUpsertExact(t *testing.T) {
	mx, model, rng := buildMutable(t, 300, 4, &MutableOptions{DisableAutoCompact: true})
	defer mx.Close()

	// Fresh inserts.
	for i := 0; i < 60; i++ {
		v := randRows(rng, 1, mutDim)[0]
		id, err := mx.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, clash := model[id]; clash {
			t.Fatalf("assigned id %d already live", id)
		}
		model[id] = v
	}
	// Deletes of base rows and of fresh memtable rows.
	for _, id := range []int{0, 7, 13, 301, 305, 280} {
		ok, err := mx.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("delete(%d) reported not live", id)
		}
		delete(model, id)
	}
	if ok, _ := mx.Delete(0); ok {
		t.Fatal("double delete must report false")
	}
	// Upserts replacing base rows (duplicate ID across base + memtable).
	for _, id := range []int{5, 9, 100} {
		v := randRows(rng, 1, mutDim)[0]
		if _, err := mx.Upsert(id, v); err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	// Upsert resurrecting a deleted ID.
	{
		v := randRows(rng, 1, mutDim)[0]
		if _, err := mx.Upsert(7, v); err != nil {
			t.Fatal(err)
		}
		model[7] = v
	}
	if mx.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", mx.Len(), len(model))
	}

	queries := randRows(rng, 20, mutDim)
	for _, q := range queries {
		got, err := mx.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, got, model.exactTopK(q, 10, L2))
	}
}

// TestMutableMergeDupTombstoneGolden pins the k-way merge behavior the
// issue calls out: duplicate global IDs across memtable and base
// segments (upserts) and tombstoned IDs in both segments must merge to
// exactly the filtered exact scan, bit-identical distances included.
func TestMutableMergeDupTombstoneGolden(t *testing.T) {
	mx, model, rng := buildMutable(t, 200, 3, &MutableOptions{DisableAutoCompact: true})
	defer mx.Close()

	// Every base row of shard-0's round-robin residue gets upserted (dup
	// IDs in base + memtable of the same shard), a slice of rows gets
	// tombstoned, and a few memtable-only rows get deleted again.
	for id := 0; id < 60; id += 3 {
		v := randRows(rng, 1, mutDim)[0]
		if _, err := mx.Upsert(id, v); err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	for id := 90; id < 120; id++ {
		if _, err := mx.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
	}
	for i := 0; i < 10; i++ {
		v := randRows(rng, 1, mutDim)[0]
		id, err := mx.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		model[id] = v
		if i%2 == 0 {
			if _, err := mx.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		}
	}

	queries := randRows(rng, 25, mutDim)
	for _, q := range queries {
		got, err := mx.Search(q, 12, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := model.exactTopK(q, 12, L2)
		assertExact(t, got, want)
		seen := map[int]bool{}
		for _, n := range got {
			if seen[n.ID] {
				t.Fatalf("duplicate id %d in merged results %v", n.ID, got)
			}
			seen[n.ID] = true
			if _, live := model[n.ID]; !live {
				t.Fatalf("tombstoned id %d surfaced in %v", n.ID, got)
			}
		}
	}
}

func TestMutableCompactionPreservesResults(t *testing.T) {
	mx, model, rng := buildMutable(t, 400, 4, &MutableOptions{DisableAutoCompact: true})
	defer mx.Close()

	for i := 0; i < 80; i++ {
		v := randRows(rng, 1, mutDim)[0]
		id, err := mx.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	for id := 20; id < 50; id++ {
		if _, err := mx.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
	}
	for id := 60; id < 70; id++ {
		v := randRows(rng, 1, mutDim)[0]
		if _, err := mx.Upsert(id, v); err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}

	queries := randRows(rng, 15, mutDim)
	before := make([][]Neighbor, len(queries))
	for i, q := range queries {
		ns, err := mx.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = ns
	}

	compacted, err := mx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted != 4 {
		t.Fatalf("compacted %d shards, want 4", compacted)
	}
	st := mx.MutationStats()
	if st.MemtableRows != 0 || st.Tombstones != 0 {
		t.Fatalf("segments not drained: mem=%d dead=%d", st.MemtableRows, st.Tombstones)
	}
	if st.Compactions != 4 {
		t.Fatalf("compactions counter = %d", st.Compactions)
	}
	if mx.Len() != len(model) {
		t.Fatalf("Len changed across compaction: %d vs %d", mx.Len(), len(model))
	}

	for i, q := range queries {
		after, err := mx.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, after, before[i])
		assertExact(t, after, model.exactTopK(q, 10, L2))
	}

	// A second compaction with clean segments is a no-op.
	compacted, err = mx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted != 0 {
		t.Fatalf("no-op compaction rebuilt %d shards", compacted)
	}
}

func TestMutableCompactionRetrainsModes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randRows(rng, 600, 32)
	mx, err := NewMutable(data, HNSW, 2, &MutableOptions{
		DisableAutoCompact: true,
		Index:              &Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if err := mx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := mx.Add(randRows(rng, 1, 32)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	if !mx.Enabled(DDCRes) {
		t.Fatal("DDCRes lost across compaction")
	}
	q := randRows(rng, 1, 32)[0]
	if _, err := mx.Search(q, 5, DDCRes, 80); err != nil {
		t.Fatalf("DDCRes search on compacted index: %v", err)
	}

	// Re-enabling a mode that is on records nothing, so compactions build
	// each mode once.
	if err := mx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(mx.mut.enables); got != 1 {
		t.Fatalf("re-enable left %d recorded enables, want 1", got)
	}
	// A mode enabled after prior compactions lands on rebuilt shards too.
	if err := mx.Enable(ADSampling, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := mx.Add(randRows(rng, 1, 32)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	if !mx.Enabled(ADSampling) || !mx.Enabled(DDCRes) {
		t.Fatalf("modes lost across second compaction: ads=%v res=%v",
			mx.Enabled(ADSampling), mx.Enabled(DDCRes))
	}
	if _, err := mx.Search(q, 5, ADSampling, 80); err != nil {
		t.Fatalf("ADSampling search after compaction: %v", err)
	}
}

// TestMutableHotSwapExactUnderRace is the acceptance pin-down: with a
// frozen live set, concurrent searches must return exact
// (filtered-scan-equivalent) results with zero failures while
// compactions hot-swap every shard's base underneath them; interleaved
// churn rounds then mutate, and the next frozen round must be exact
// again.
func TestMutableHotSwapExactUnderRace(t *testing.T) {
	mx, model, rng := buildMutable(t, 500, 4, &MutableOptions{DisableAutoCompact: true})
	defer mx.Close()

	queries := randRows(rng, 12, mutDim)
	const rounds = 4
	nextID := 500
	for round := 0; round < rounds; round++ {
		// Churn: mutate the index and model in lockstep (single writer).
		for i := 0; i < 120; i++ {
			switch rng.Intn(3) {
			case 0:
				v := randRows(rng, 1, mutDim)[0]
				id, err := mx.Add(v)
				if err != nil {
					t.Fatal(err)
				}
				if id < nextID {
					t.Fatalf("id %d reused (allocator low-water %d)", id, nextID)
				}
				nextID = id + 1
				model[id] = v
			case 1:
				// Delete a random live id.
				for id := range model {
					if _, err := mx.Delete(id); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
					break
				}
			case 2:
				for id := range model {
					v := randRows(rng, 1, mutDim)[0]
					if _, err := mx.Upsert(id, v); err != nil {
						t.Fatal(err)
					}
					model[id] = v
					break
				}
			}
		}

		// Frozen phase: the live set no longer changes, so every search
		// must be exact at every instant — including while Compact swaps
		// all four shard bases.
		frozen := model.clone()
		want := make([][]Neighbor, len(queries))
		for i, q := range queries {
			want[i] = frozen.exactTopK(q, 10, L2)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		errCh := make(chan error, 8)
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var dst []Neighbor
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					qi := (w + i) % len(queries)
					var err error
					dst, _, err = mx.SearchInto(dst[:0], queries[qi], 10, Exact, 0)
					if err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
					if len(dst) != len(want[qi]) {
						t.Errorf("round %d: %d hits, want %d", round, len(dst), len(want[qi]))
						return
					}
					for j := range dst {
						if dst[j].Distance != want[qi][j].Distance {
							t.Errorf("round %d query %d hit %d: dist %v want %v",
								round, qi, j, dst[j].Distance, want[qi][j].Distance)
							return
						}
					}
				}
			}(w)
		}
		// Two full compaction passes while the searchers hammer.
		for pass := 0; pass < 2; pass++ {
			if _, err := mx.Compact(); err != nil {
				t.Fatal(err)
			}
			// Re-dirty the segments so the second pass actually swaps: an
			// upsert of an existing row leaves the live set unchanged.
			if pass == 0 {
				for id, v := range frozen {
					if _, err := mx.Upsert(id, v); err != nil {
						t.Fatal(err)
					}
					model[id] = v
					break
				}
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errCh:
			t.Fatalf("round %d: search failed during hot swap: %v", round, err)
		default:
		}
	}
}

func TestMutableAutoCompaction(t *testing.T) {
	mx, model, rng := buildMutable(t, 200, 2, &MutableOptions{CompactThreshold: 32})
	defer mx.Close()
	for i := 0; i < 400; i++ {
		v := randRows(rng, 1, mutDim)[0]
		id, err := mx.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	// The compactor runs asynchronously; force the tail and verify the
	// final state is exact.
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	st := mx.MutationStats()
	if st.Compactions == 0 {
		t.Fatal("no compactions ran despite 400 inserts at threshold 32")
	}
	if st.MemtableRows != 0 {
		t.Fatalf("memtable rows left: %d", st.MemtableRows)
	}
	q := randRows(rng, 1, mutDim)[0]
	got, err := mx.Search(q, 10, Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, got, model.exactTopK(q, 10, L2))
}

func TestMutableSaveLoadMidCompaction(t *testing.T) {
	mx, model, rng := buildMutable(t, 300, 3, &MutableOptions{DisableAutoCompact: true})
	defer mx.Close()

	// Leave the index mid-stream: memtable rows pending, tombstones
	// pending, an upsert shadowing a base row.
	for i := 0; i < 40; i++ {
		v := randRows(rng, 1, mutDim)[0]
		id, err := mx.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	for id := 10; id < 25; id++ {
		if _, err := mx.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
	}
	v := randRows(rng, 1, mutDim)[0]
	if _, err := mx.Upsert(30, v); err != nil {
		t.Fatal(err)
	}
	model[30] = v

	stBefore := mx.MutationStats()
	if stBefore.MemtableRows == 0 || stBefore.Tombstones == 0 {
		t.Fatalf("precondition: want pending segments, got mem=%d dead=%d",
			stBefore.MemtableRows, stBefore.Tombstones)
	}

	var buf bytes.Buffer
	if err := mx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMutable(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// The pre-WAL header version is no longer read.
	v1 := append([]byte("RESSTRM1"), buf.Bytes()[8:]...)
	if _, err := LoadMutable(bytes.NewReader(v1), nil); err == nil || !strings.Contains(err.Error(), "bad mutable-index magic") {
		t.Fatalf("RESSTRM1 stream: err = %v, want bad-magic refusal", err)
	}

	stAfter := loaded.MutationStats()
	if stAfter.MemtableRows != stBefore.MemtableRows || stAfter.Tombstones != stBefore.Tombstones {
		t.Fatalf("segments not preserved: mem %d→%d dead %d→%d",
			stBefore.MemtableRows, stAfter.MemtableRows, stBefore.Tombstones, stAfter.Tombstones)
	}
	if loaded.Len() != mx.Len() {
		t.Fatalf("Len %d → %d across round trip", mx.Len(), loaded.Len())
	}

	queries := randRows(rng, 15, mutDim)
	for _, q := range queries {
		a, err := mx.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, b, a)
		assertExact(t, b, model.exactTopK(q, 10, L2))
	}

	// The loaded index keeps mutating and compacting correctly: IDs are
	// stable, the allocator does not reuse live IDs.
	id, err := loaded.Add(randRows(rng, 1, mutDim)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := model[id]; clash {
		t.Fatalf("loaded allocator reused live id %d", id)
	}
	if _, err := loaded.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:5] {
		b, err := loaded.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, b, model.exactTopK(q, 10, L2))
	}
}

func TestMutableCosineAndIP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, metric := range []MetricKind{Cosine, InnerProduct} {
		data := randRows(rng, 150, 16)
		mx, err := NewMutable(data, Flat, 2, &MutableOptions{
			DisableAutoCompact: true,
			Index:              &Options{Metric: metric},
		})
		if err != nil {
			t.Fatal(err)
		}
		model := liveModel{}
		for i, v := range data {
			model[i] = v
		}
		for i := 0; i < 30; i++ {
			v := randRows(rng, 1, 16)[0]
			id, err := mx.Add(v)
			if err != nil {
				t.Fatal(err)
			}
			model[id] = v
		}
		for id := 0; id < 10; id++ {
			if _, err := mx.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		}
		// Model ranking: cosine ranks by cosine similarity, IP by dot.
		rank := func(q []float32, k int) []int {
			type scored struct {
				id int
				s  float64
			}
			var all []scored
			for id, v := range model {
				var s float64
				switch metric {
				case Cosine:
					s = float64(vec.Dot(q, v)) / (float64(vec.Norm(q)) * float64(vec.Norm(v)))
				case InnerProduct:
					s = float64(vec.Dot(q, v))
				}
				all = append(all, scored{id, s})
			}
			sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
			ids := make([]int, 0, k)
			for i := 0; i < k && i < len(all); i++ {
				ids = append(ids, all[i].id)
			}
			return ids
		}
		for qi := 0; qi < 10; qi++ {
			q := randRows(rng, 1, 16)[0]
			got, err := mx.Search(q, 8, Exact, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := rank(q, 8)
			// Float rounding across different formulas can flip near-ties;
			// require ≥7/8 overlap and the top hit to match.
			overlap := 0
			gotSet := map[int]bool{}
			for _, n := range got {
				gotSet[n.ID] = true
			}
			for _, id := range want {
				if gotSet[id] {
					overlap++
				}
			}
			if overlap < 7 {
				t.Fatalf("%s: overlap %d/8\n got %v\nwant %v", metric, overlap, got, want)
			}
			if got[0].ID != want[0] {
				t.Fatalf("%s: top hit %d, want %d", metric, got[0].ID, want[0])
			}
		}
		// Compact and re-check the top hit still agrees.
		if _, err := mx.Compact(); err != nil {
			t.Fatal(err)
		}
		q := randRows(rng, 1, 16)[0]
		got, err := mx.Search(q, 5, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].ID != rank(q, 1)[0] {
			t.Fatalf("%s after compaction: top hit %d, want %d", metric, got[0].ID, rank(q, 1)[0])
		}
		mx.Close()
	}
}

func TestShardedEmptyGuards(t *testing.T) {
	// A corrupt/zero-value ShardedIndex must not panic in metadata
	// accessors (downstream servers call them on loaded indexes).
	sx := &ShardedIndex{}
	if d := sx.Dim(); d != 0 {
		t.Fatalf("Dim on empty = %d", d)
	}
	if m := sx.Modes(); len(m) != 0 {
		t.Fatalf("Modes on empty = %v", m)
	}
	n := Neighbor{ID: 1, Distance: 2}
	if s := sx.Score(n, []float32{1}); s != 2 {
		t.Fatalf("Score on empty = %v", s)
	}
}

func TestMutableSaveRejectedOnPlainSharded(t *testing.T) {
	mx, _, _ := buildMutable(t, 60, 2, &MutableOptions{DisableAutoCompact: true})
	defer mx.Close()
	var buf bytes.Buffer
	if err := mx.ShardedIndex.Save(&buf); err == nil {
		t.Fatal("plain Save on a mutable index must refuse (would drop segments)")
	}
	if err := mx.Save(&buf); err != nil {
		t.Fatal(err)
	}
}

package resinfer

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"resinfer/internal/dataset"
	"resinfer/internal/fault"
	"resinfer/internal/persist"
	"resinfer/internal/vec"
)

// TestComparatorsAgreeWithExactOverFlat is the differential test of the
// rotating comparators: over a Flat index every candidate goes through
// Compare, so whatever differs from the exact scan is the comparator's
// doing — its rotation, its bound, its pruning. At a dimension that is a
// multiple of no SIMD block (33) and at the benchmark's (420), each mode's
// top-10 must reach recall 0.99 against the exact mode's, and every
// neighbour it returns — a candidate it did not prune — must carry a
// distance whose Score is the true one within 1e-3 relative.
func TestComparatorsAgreeWithExactOverFlat(t *testing.T) {
	const k = 10
	for _, dim := range []int{33, 420} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			ds, err := dataset.Generate(dataset.GenConfig{
				Name: "differential", N: 1500, Dim: dim, Queries: 40, TrainQueries: 60,
				VE32: 0.6, Seed: int64(1000 + dim),
			})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := New(ds.Data, Flat, &Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			modes := []Mode{DDCRes, DDCPCA, ADSampling}
			for _, m := range modes {
				if err := ix.EnableWithTraining(m, ds.Train, nil); err != nil {
					t.Fatal(err)
				}
			}
			hits := make(map[Mode]int, len(modes))
			for qi, q := range ds.Queries {
				exact, err := ix.Search(q, k, Exact, 0)
				if err != nil {
					t.Fatal(err)
				}
				truth := make(map[int]bool, k)
				for _, n := range exact {
					truth[n.ID] = true
				}
				for _, m := range modes {
					got, err := ix.Search(q, k, m, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range got {
						if truth[n.ID] {
							hits[m]++
						}
						want := vec.L2Sq64(q, ds.Data[n.ID])
						if score := float64(ix.Score(n, q)); math.Abs(score-want) > 1e-3*want {
							t.Errorf("%s query %d: id %d scored %v, true distance %v", m, qi, n.ID, score, want)
						}
					}
				}
			}
			for _, m := range modes {
				if recall := float64(hits[m]) / float64(k*len(ds.Queries)); recall < 0.99 {
					t.Errorf("%s: recall@%d %.4f against exact, want >= 0.99", m, k, recall)
				}
			}
		})
	}
}

// TestComparatorsAgreeWithExactOverMutableShards carries the differential
// test to what a shared, inherited rotation must not break: a 4-shard
// mutable index whose comparators are built around one rotation per mode,
// checked as built, after rows the rotation never saw — shifted and
// rescaled — were ingested and every shard compacted around the inherited
// rotation, and after a second wave whose energy sits in the dimensions the
// rotation ranked last. Under all three metrics every merge key returned
// must be the true one within 1e-3 relative at every stage — an aged
// rotation may prune less, it can never answer wrong — and recall against
// the exact mode must stay at 0.99. The one exemption is ddc-pca after the
// reversed wave: its classifiers read prefix distances, which say little
// once the rotation no longer concentrates the energy (measured: 0.99 under
// cosine here, 0.965 when all 400 ingested rows are reversed) — the state
// CompactionInfo.LeadShare exists to flag.
func TestComparatorsAgreeWithExactOverMutableShards(t *testing.T) {
	const k, dim = 10, 96
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "differential-mutable", N: 1600, Dim: dim, Queries: 40, TrainQueries: 60,
		VE32: 0.6, Seed: 2024,
	})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{DDCRes, DDCPCA, ADSampling}
	for _, mk := range []MetricKind{L2, Cosine, InnerProduct} {
		t.Run(string(mk), func(t *testing.T) {
			mx, err := NewMutable(ds.Data[:1200], Flat, 4, &MutableOptions{
				Index: &Options{Seed: 5, Metric: mk}, DisableAutoCompact: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			for _, m := range modes {
				if err := mx.EnableWithTraining(m, ds.Train, nil); err != nil {
					t.Fatal(err)
				}
			}
			rows := map[int][]float32{}
			for id, r := range ds.Data[:1200] {
				rows[id] = r
			}
			// trueKey is the merge key of row x for query q, in float64.
			trueKey := func(q, x []float32) float64 {
				switch mk {
				case Cosine:
					return 2 - 2*vec.Dot64(q, x)/math.Sqrt(vec.Dot64(q, q)*vec.Dot64(x, x))
				case InnerProduct:
					return -vec.Dot64(q, x)
				}
				return vec.L2Sq64(q, x)
			}
			check := func(stage string, exempt Mode) {
				hits := make(map[Mode]int, len(modes))
				for qi, q := range ds.Queries {
					exact, err := mx.Search(q, k, Exact, 0)
					if err != nil {
						t.Fatal(err)
					}
					truth := make(map[int]bool, k)
					for _, n := range exact {
						truth[n.ID] = true
					}
					for _, m := range modes {
						got, err := mx.Search(q, k, m, 0)
						if err != nil {
							t.Fatal(err)
						}
						for _, n := range got {
							if truth[n.ID] {
								hits[m]++
							}
							want := trueKey(q, rows[n.ID])
							if math.Abs(float64(n.Distance)-want) > 1e-3*math.Abs(want)+1e-5 {
								t.Errorf("%s %s query %d: id %d has key %v, true key %v", stage, m, qi, n.ID, n.Distance, want)
							}
						}
					}
				}
				for _, m := range modes {
					recall := float64(hits[m]) / float64(k*len(ds.Queries))
					if m == exempt {
						t.Logf("%s %s: recall@%d %.4f against exact", stage, m, k, recall)
					} else if recall < 0.99 {
						t.Errorf("%s %s: recall@%d %.4f against exact, want >= 0.99", stage, m, k, recall)
					}
				}
			}
			ingest := func(src [][]float32, drift func(dst, r []float32)) {
				for _, r := range src {
					row := make([]float32, dim)
					drift(row, r)
					id, err := mx.Add(row)
					if err != nil {
						t.Fatal(err)
					}
					rows[id] = row
				}
				if n, err := mx.Compact(); err != nil || n != 4 {
					t.Fatalf("Compact rebuilt %d shards, err %v; want 4", n, err)
				}
			}
			check("as built", "")
			ingest(ds.Data[1200:1400], func(dst, r []float32) {
				for j, v := range r {
					dst[j] = 1.5*v + 0.5
				}
			})
			check("after shifted rows", "")
			ingest(ds.Data[1400:], func(dst, r []float32) {
				for j, v := range r {
					dst[dim-1-j] = 1.5*v + 0.5
				}
			})
			check("after reversed rows", DDCPCA)
		})
	}
}

// TestMutableSearchAgreesWithOracle is the differential test of search on
// a mutable index. The oracle mirrors every acknowledged mutation in an
// id → vector map and ranks it with dataset.BruteForceKNN. Random Adds,
// Upserts and Deletes hit base rows and memtable rows, resurrect deleted
// IDs and delete upserted ones, and every shard is compacted mid-way. Two
// indexes take the same mutations: one serves exact alone, so its rows
// keep their space and its distances their bits, and one serves ddc-res.
// At each stage, over HNSW and Flat, at an ef that walks the graph and one
// that scans, and at k = 10 and a k past one shard's live rows:
//   - GroundTruthSearch, and Exact wherever it scans, equal the oracle in
//     IDs and distance bits;
//   - an exact walk answers min(k, live) live IDs, each at its oracle
//     distance bits;
//   - ddc-res answers min(k, live) live IDs;
//   - recall against the oracle is at least 0.95 for exact and 0.99 for
//     ddc-res, or 0.85 on a walk, whose graph (at ef 16, M 8) bounds it:
//     it reads 0.91 on the index as built, with nothing hidden.
func TestMutableSearchAgreesWithOracle(t *testing.T) {
	const n, dim, shards, walkEf, scanEf, bigK = 800, 48, 2, 16, 64, 500
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "mutable-oracle", N: n + 400, Dim: dim, Queries: 20, VE32: 0.6, Seed: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []IndexKind{HNSW, Flat} {
		t.Run(string(kind), func(t *testing.T) {
			// Adds and Upserts draw rows from ds.Data[n:], each once, so
			// no two live rows tie.
			fresh := ds.Data[n:]
			opts := &Options{Seed: 3, HNSWM: 8, HNSWEfConstruction: 48, DeltaD: 16}
			var mxs [2]*MutableIndex // exact alone, then ddc-res
			for i := range mxs {
				mx, err := NewMutable(ds.Data[:n], kind, shards, &MutableOptions{Index: opts, DisableAutoCompact: true})
				if err != nil {
					t.Fatal(err)
				}
				defer mx.Close()
				mxs[i] = mx
			}
			if err := mxs[1].Enable(DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			plain, res := mxs[0], mxs[1]
			live := map[int][]float32{}
			for id, r := range ds.Data[:n] {
				live[id] = r
			}
			var deleted, upserted []int
			rng := rand.New(rand.NewSource(48))
			// pick returns a random member of ids, deterministically.
			pick := func(ids []int) int { return ids[rng.Intn(len(ids))] }
			liveIDs := func() []int {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return ids
			}
			next := func() []float32 {
				v := fresh[0]
				fresh = fresh[1:]
				return v
			}
			upsert := func(id int) {
				v := next()
				for _, mx := range mxs {
					if _, err := mx.Upsert(id, v); err != nil {
						t.Fatal(err)
					}
				}
				live[id] = v
				upserted = append(upserted, id)
			}
			del := func(id int) {
				for _, mx := range mxs {
					if ok, err := mx.Delete(id); err != nil || !ok {
						t.Fatalf("Delete(%d) = %v, %v; want a live row deleted", id, ok, err)
					}
				}
				delete(live, id)
				deleted = append(deleted, id)
			}
			mutate := func(ops int) {
				for range ops {
					switch op := rng.Intn(6); {
					case op == 0: // a fresh memtable row
						v := next()
						id, err := plain.Add(v)
						if err != nil {
							t.Fatal(err)
						}
						if rid, err := res.Add(v); err != nil || rid != id {
							t.Fatalf("Add assigned %d and %d (%v)", id, rid, err)
						}
						live[id] = v
					case op == 1, op == 2: // a live row, base or memtable, replaced
						upsert(pick(liveIDs()))
					case op == 3: // a live row, base or memtable, deleted
						del(pick(liveIDs()))
					case op == 4 && len(deleted) > 0: // a deleted ID resurrected
						if id := pick(deleted); live[id] == nil {
							upsert(id)
						}
					case op == 5 && len(upserted) > 0: // an upserted ID deleted
						if id := pick(upserted); live[id] != nil {
							del(id)
						}
					}
				}
			}
			check := func(stage string) {
				ids := liveIDs()
				rows := make([][]float32, len(ids))
				for i, id := range ids {
					rows[i] = live[id]
				}
				for _, k := range []int{10, bigK} {
					want := min(k, len(ids))
					truth, err := dataset.BruteForceKNN(rows, ds.Queries, k, 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, ef := range []int{walkEf, scanEf} {
						walks := kind == HNSW && max(k, ef) == walkEf
						for s, sh := range plain.shards {
							if sh.hnswIdx != nil && (max(k, ef) < sh.hnswIdx.ScanFrom()) != walks {
								t.Fatalf("%s: shard %d scans from ef %d; k %d ef %d must walk iff %v", stage, s, sh.hnswIdx.ScanFrom(), k, ef, walks)
							}
						}
						hits := map[Mode]int{}
						for qi, q := range ds.Queries {
							oracle := make([]Neighbor, len(truth[qi]))
							inTruth := map[int]bool{}
							for i, r := range truth[qi] {
								oracle[i] = Neighbor{ID: ids[r], Distance: vec.L2Sq(q, rows[r])}
								inTruth[ids[r]] = true
							}
							label := fmt.Sprintf("%s k %d ef %d q%d", stage, k, ef, qi)
							if ef == scanEf {
								gt, _, _, err := plain.GroundTruthSearch(nil, nil, q, k)
								if err != nil {
									t.Fatal(err)
								}
								sameBits(t, label+" ground truth", gt, oracle)
							}
							ex, err := plain.Search(q, k, Exact, ef)
							if err != nil {
								t.Fatal(err)
							}
							if !walks {
								sameBits(t, label+" exact", ex, oracle)
							}
							ddc, err := res.Search(q, k, DDCRes, ef)
							if err != nil {
								t.Fatal(err)
							}
							for m, got := range map[Mode][]Neighbor{Exact: ex, DDCRes: ddc} {
								if len(got) != want {
									t.Fatalf("%s %s: %d hits, want min(k, live) = %d", label, m, len(got), want)
								}
								for _, nb := range got {
									v, ok := live[nb.ID]
									if !ok {
										t.Fatalf("%s %s: hidden id %d answered", label, m, nb.ID)
									}
									if m == Exact && math.Float32bits(nb.Distance) != math.Float32bits(vec.L2Sq(q, v)) {
										t.Fatalf("%s exact: id %d at %v, its live row at %v", label, nb.ID, nb.Distance, vec.L2Sq(q, v))
									}
									if inTruth[nb.ID] {
										hits[m]++
									}
								}
							}
						}
						for m, floor := range map[Mode]float64{Exact: 0.95, DDCRes: 0.99} {
							if walks {
								floor = 0.85
							}
							recall := float64(hits[m]) / float64(want*len(ds.Queries))
							if recall < floor {
								t.Errorf("%s k %d ef %d %s: recall %.4f against the oracle, want >= %.2f", stage, k, ef, m, recall, floor)
							}
						}
					}
				}
			}
			check("as built")
			mutate(150)
			check("mutated")
			for _, mx := range mxs {
				if c, err := mx.Compact(); err != nil || c != shards {
					t.Fatalf("Compact rebuilt %d shards, err %v; want %d", c, err, shards)
				}
			}
			check("compacted")
			mutate(150)
			check("mutated after compaction")
			if len(deleted) == 0 || len(upserted) == 0 {
				t.Fatal("the workload deleted or upserted nothing")
			}
		})
	}
}

// TestMutableSwapWindowAgreesWithOracle holds a compaction of shard 0
// between its snapshot and its swap (a delay at the compact.swap fault
// site) and mutates the shard in that window: a memtable row the build is
// folding in is deleted, a base row the build keeps is deleted and re-added
// so that it lands on shard 1, and another kept base row is upserted. The
// rebuilt base then holds three stale rows, which the swap must mask. In
// the window, after the swap and after a Save/LoadMutable round trip,
// ground truth and the scanning Exact search equal the id → vector oracle
// in IDs and distance bits, and MutationStats.Tombstones counts the deleted
// base rows: masked rows no memtable row shadows. A stream whose
// deleted-rows section lists IDs its shard's base does not hold — a stream
// may list deleted memtable-only rows — loads to the same index.
func TestMutableSwapWindowAgreesWithOracle(t *testing.T) {
	const n, dim, k, scanEf = 400, 32, 10, 256
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "swap-window", N: n + 100, Dim: dim, Queries: 12, VE32: 0.6, Seed: 49,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []IndexKind{HNSW, Flat} {
		t.Run(string(kind), func(t *testing.T) {
			fresh := ds.Data[n:]
			mx, err := NewMutable(ds.Data[:n], kind, 2, &MutableOptions{
				Index: &Options{Seed: 3, HNSWM: 8, HNSWEfConstruction: 48}, DisableAutoCompact: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			live := map[int][]float32{}
			for id, r := range ds.Data[:n] {
				live[id] = r
			}
			next := func() []float32 {
				v := fresh[0]
				fresh = fresh[1:]
				return v
			}
			upsert := func(id int) int {
				v := next()
				id, err := mx.Upsert(id, v)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = v
				return id
			}
			del := func(id int) {
				if ok, err := mx.Delete(id); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v; want a live row deleted", id, ok, err)
				}
				delete(live, id)
			}
			check := func(stage string, mx *MutableIndex, tombstones int) {
				t.Helper()
				if got := mx.MutationStats().Tombstones; got != tombstones {
					t.Errorf("%s: Tombstones = %d, want %d deleted base rows", stage, got, tombstones)
				}
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				rows := make([][]float32, len(ids))
				for i, id := range ids {
					rows[i] = live[id]
				}
				truth, err := dataset.BruteForceKNN(rows, ds.Queries, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range ds.Queries {
					oracle := make([]Neighbor, len(truth[qi]))
					for i, r := range truth[qi] {
						oracle[i] = Neighbor{ID: ids[r], Distance: vec.L2Sq(q, rows[r])}
					}
					label := fmt.Sprintf("%s q%d", stage, qi)
					gt, _, _, err := mx.GroundTruthSearch(nil, nil, q, k)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, label+" ground truth", gt, oracle)
					ex, err := mx.Search(q, k, Exact, scanEf)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, label+" exact", ex, oracle)
				}
			}

			// Before the window: copies of queries 0-5 added as memtable rows
			// on both shards, three base rows of shard 0 (0, 2, 4, ...:
			// round-robin) deleted and two upserted. A stale row the swap
			// leaves unmasked is then a top hit: the deleted memtable row is a
			// query, and the window's base rows are its nearest kept ones.
			var mem0 []int // shard 0's memtable-only rows
			for _, q := range ds.Queries[:6] {
				id, err := mx.Add(q)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = q
				if mx.mut.owner[id] == 0 {
					mem0 = append(mem0, id)
				}
			}
			for _, id := range []int{0, 2, 4} {
				del(id)
			}
			upsert(6)
			upsert(8)
			check("before the window", mx, 3)
			nearestKept := func(q []float32, not int) int {
				best := -1
				for id := 10; id < n; id += 2 {
					if id != not && (best < 0 || vec.L2Sq(q, ds.Data[id]) < vec.L2Sq(q, ds.Data[best])) {
						best = id
					}
				}
				return best
			}
			moved := nearestKept(ds.Queries[6], -1)
			upserted := nearestKept(ds.Queries[7], moved)

			hits := fault.Hits(fault.SiteCompactSwap)
			defer fault.Inject(fault.Injection{Site: fault.SiteCompactSwap, Arg: 0, Delay: time.Second, Limit: 1})()
			done := make(chan error, 1)
			go func() {
				did, _, err := mx.compactShard(0, true)
				if err == nil && !did {
					err = errors.New("compactShard found nothing to do")
				}
				done <- err
			}()
			for deadline := time.Now().Add(30 * time.Second); fault.Hits(fault.SiteCompactSwap) == hits; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the compaction never reached its swap")
				}
			}

			// The window. moved is re-added with the round-robin cursor on
			// shard 1 (a fresh row on shard 0 first, if it is not).
			del(mem0[0])
			del(moved)
			if mx.mut.rr%2 == 0 {
				upsert(-1)
			}
			upsert(moved)
			if s := mx.mut.owner[moved]; s != 1 {
				t.Fatalf("re-added row %d landed on shard %d, want 1", moved, s)
			}
			upsert(upserted)
			// Deleted base rows of shard 0's old base: 0, 2, 4 and moved.
			check("in the window", mx, 4)
			select {
			case err := <-done:
				t.Fatalf("the compaction swapped before the window closed (err %v)", err)
			default:
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// The rebuilt base holds mem0[0] and moved, now deleted there, and
			// upserted, which the memtable shadows.
			check("after the swap", mx, 2)

			var buf bytes.Buffer
			if err := mx.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadMutable(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			check("loaded", loaded, 2)

			// Shard 1's deleted-rows section ends the stream; list in it the
			// memtable-only row deleted in the window, a row of shard 0's base
			// and an ID that was never assigned.
			raw := buf.Bytes()
			at := bytes.LastIndex(raw, []byte(deletedMagic))
			pr := persist.NewReader(bytes.NewReader(raw[at:]))
			pr.Magic(deletedMagic)
			listed := pr.Ints()
			if err := pr.Err(); err != nil {
				t.Fatal(err)
			}
			var hand bytes.Buffer
			hand.Write(raw[:at])
			pw := persist.NewWriter(&hand)
			pw.Magic(deletedMagic)
			pw.Ints(append(listed, mem0[0], 10, 1<<40))
			if err := pw.Flush(); err != nil {
				t.Fatal(err)
			}
			handLoaded, err := LoadMutable(&hand, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer handLoaded.Close()
			check("loaded from the hand-built stream", handLoaded, 2)
		})
	}
}

// sameBits fails unless got is want: distance bits hit by hit, and each
// ID at its oracle distance. Distinct rows can tie in float32, and a tie
// orders arbitrarily, or at the last place picks arbitrarily, so IDs are
// matched by distance rather than by position.
func sameBits(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, oracle %d", label, len(got), len(want))
	}
	at := make(map[int]uint32, len(want))
	for _, w := range want {
		at[w.ID] = math.Float32bits(w.Distance)
	}
	for i := range got {
		d := math.Float32bits(got[i].Distance)
		b, ok := at[got[i].ID]
		if d != math.Float32bits(want[i].Distance) || (!ok || b != d) && d != math.Float32bits(want[len(want)-1].Distance) {
			t.Fatalf("%s: hit %d is %+v, oracle %+v", label, i, got[i], want[i])
		}
	}
}

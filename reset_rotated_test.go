package resinfer

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
)

// TestResetRotatedAnswersAsReset holds every comparator to the contract
// the sharded fan-out primes evaluators by: ResetRotated of the query
// projected through the comparator's Model, followed by a scan, gives the
// ids, distance bits and Stats of Reset and the same scan; where Model is
// nil, ResetRotated of the query itself does. A Flat index of n ≥ D >
// core.DeepDim rows trains a model at construction, so exact on raw rows
// prunes at both depths; Enable(DDCRes) then re-bases the rows, and exact
// is held to the contract again on them.
func TestResetRotatedAnswersAsReset(t *testing.T) {
	const d, k = core.DeepDim + 32, 10
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "reset-rotated", N: 600, Dim: d, Queries: 8, TrainQueries: 40, VE32: 0.7, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(ds.Data, Flat, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scan := func(ev core.ResettableEvaluator, reset func([]float32) error, q, rq []float32) ([]Neighbor, SearchStats) {
		t.Helper()
		if err := reset(rq); err != nil {
			t.Fatal(err)
		}
		ns, st, err := ix.walk(&session{ev: ev}, nil, q, k, 0, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ns, st
	}
	check := func(name string, mode Mode, wantModel bool) {
		t.Helper()
		ix.mu.RLock()
		dco := ix.modes[mode].dco
		ix.mu.RUnlock()
		model := dco.Model()
		if (model != nil) != wantModel {
			t.Fatalf("%s: Model %v, want one: %v", name, model, wantModel)
		}
		var pruned int64
		for qi, q := range ds.Queries {
			rq := q
			if model != nil {
				if rq, err = model.Project(q); err != nil {
					t.Fatal(err)
				}
			}
			ev, rev := dco.NewEvaluator(), dco.NewEvaluator()
			want, wst := scan(ev, ev.Reset, q, q)
			got, gst := scan(rev, rev.ResetRotated, q, rq)
			if gst != wst {
				t.Errorf("%s query %d: ResetRotated stats %+v, Reset %+v", name, qi, gst, wst)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: ResetRotated %d hits, Reset %d", name, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || math.Float32bits(got[i].Distance) != math.Float32bits(want[i].Distance) {
					t.Errorf("%s query %d hit %d: ResetRotated %+v, Reset %+v", name, qi, i, got[i], want[i])
				}
			}
			pruned += wst.Pruned
		}
		if pruned == 0 {
			t.Errorf("%s: nothing pruned, so the contract was held on full scans only", name)
		}
	}

	check("exact, raw rows", Exact, false)
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	check("exact, re-based rows", Exact, true)
	check("ddc-res", DDCRes, true)
	for _, m := range []Mode{DDCPCA, ADSampling, DDCOPQ} {
		if err := ix.EnableWithTraining(m, ds.Train, nil); err != nil {
			t.Fatal(err)
		}
	}
	check("ddc-pca", DDCPCA, true)
	check("adsampling", ADSampling, true)
	check("ddc-opq", DDCOPQ, false)
}

// resetCounter decorates an evaluator and counts how a fan primes it.
type resetCounter struct {
	core.ResettableEvaluator
	resets, rotated *atomic.Int32
}

func (c resetCounter) Reset(q []float32) error {
	c.resets.Add(1)
	return c.ResettableEvaluator.Reset(q)
}

func (c resetCounter) ResetRotated(rq []float32) error {
	c.rotated.Add(1)
	return c.ResettableEvaluator.ResetRotated(rq)
}

// countPrimes makes every session sx's shards draw for mode count into one
// pair of counters, which it returns: the fans sx serves from then on are
// counted. A session counted for an earlier call counts for this one only.
func countPrimes(sx *ShardedIndex, mode Mode) (resets, rotated *atomic.Int32) {
	resets, rotated = new(atomic.Int32), new(atomic.Int32)
	for _, shard := range sx.shards {
		shard.mu.Lock()
		em := shard.modes[mode]
		inner := em.pool
		em.pool = &sync.Pool{New: func() any {
			s := inner.Get().(*session)
			if c, ok := s.ev.(resetCounter); ok {
				s.ev = c.ResettableEvaluator
			}
			s.ev = resetCounter{s.ev, resets, rotated}
			return s
		}}
		shard.modes[mode] = em
		shard.mu.Unlock()
	}
	return resets, rotated
}

// primeCounts primes every shard's mode evaluator for q through one fan's
// prime, shard after shard as a fan at SearchWorkers 1 probes them, and
// returns how many took Reset and how many ResetRotated.
func primeCounts(t *testing.T, sx *ShardedIndex, q []float32, mode Mode) (resets, rotated int) {
	t.Helper()
	fs := sx.fanPool.Get().(*fanScratch)
	defer sx.fanPool.Put(fs)
	if err := sx.begin(fs, q, 10, mode, 0); err != nil {
		t.Fatal(err)
	}
	var r, rr atomic.Int32
	for _, shard := range sx.shards {
		s, pool, err := shard.acquire(mode)
		if err != nil {
			t.Fatal(err)
		}
		err = fs.prime(resetCounter{s.ev, &r, &rr}, s.model)
		pool.Put(s)
		if err != nil {
			t.Fatal(err)
		}
	}
	return int(r.Load()), int(rr.Load())
}

// TestFanProjectsOnce: a query fanned over the four shards of a ddc-res or
// adsampling index is projected once, by the first probe, and every shard's
// evaluator is primed with ResetRotated and none with Reset — after Enable,
// after a Compact and after LoadSharded. Each ddc-res shard's model is a
// Refit of its own, sharing only Mean and Rotation with the others, so a
// slot keyed by the model would have three of the four project again. A
// shard with a rotation of its own takes Reset.
//
// Served fans are held to fanScratch.prime's promise too. Each shard is
// primed once, and the probe that fills the slot takes ResetRotated. At
// SearchWorkers 1 every shard takes ResetRotated. At SearchWorkers 2 a fan
// takes at most one Reset — the helper's first probe, when it arrives while
// the caller's is still projecting — unless the projecting goroutine is
// held up (descheduled, or stopped for a stack scan) while the other probes
// every shard left. That is rare, so more than one fan in ten doing it
// fails the test: a slot the probes stopped sharing makes it every fan.
func TestFanProjectsOnce(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "fan-projects-once", N: 800, Dim: 48, Queries: 4, VE32: 0.7, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{DDCRes, ADSampling}
	// Served fans at SearchWorkers 2, those that projected twice, and those
	// that projected more often.
	var fans, twice, more int
	expect := func(when string, sx *ShardedIndex, wantResets, wantRotated int) {
		t.Helper()
		for _, m := range modes {
			for qi, q := range ds.Queries {
				if r, rr := primeCounts(t, sx, q, m); r != wantResets || rr != wantRotated {
					t.Errorf("%s, %s query %d: %d Reset and %d ResetRotated, want %d and %d", when, m, qi, r, rr, wantResets, wantRotated)
				}
			}
		}
		if wantResets > 0 {
			return
		}
		defer func(w int) { sx.workers = w }(sx.workers)
		for _, workers := range []int{1, 2} {
			sx.workers = workers
			for _, m := range modes {
				resets, rotated := countPrimes(sx, m)
				for i := range 50 {
					resets.Store(0)
					rotated.Store(0)
					if _, err := sx.Search(ds.Queries[i%len(ds.Queries)], 10, m, 0); err != nil {
						t.Fatal(err)
					}
					r, rr := int(resets.Load()), int(rotated.Load())
					if r+rr != len(sx.shards) || rr == 0 || workers == 1 && r > 0 {
						t.Errorf("%s, %s fan at %d workers: %d Reset and %d ResetRotated, want %d primes, one rotated at least, and no Reset at 1 worker",
							when, m, workers, r, rr, len(sx.shards))
					}
					if workers == 2 {
						fans++
						switch {
						case r == 1:
							twice++
						case r > 1:
							more++
						}
					}
				}
			}
		}
	}

	mx, err := NewMutable(ds.Data, Flat, 4, &MutableOptions{
		Index: &Options{Seed: 1}, SearchWorkers: 1, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	for _, m := range modes {
		if err := mx.Enable(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	expect("after Enable", mx.ShardedIndex, 0, 4)
	for _, q := range ds.Queries {
		if _, err := mx.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	expect("after Compact", mx.ShardedIndex, 0, 4)

	sx, err := NewSharded(ds.Data, Flat, 4, &ShardOptions{Index: &Options{Seed: 1}, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		if err := sx.Enable(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	expect("after LoadSharded", loaded, 0, 4)

	// Four shards that each trained their own PCA and random rotation: the
	// first probe fills the slot, the other three project for themselves.
	legacy := &ShardedIndex{
		kind: Flat, strategy: RoundRobin, metric: L2, globalID: make([][]int, 4),
		n: len(ds.Data), userDim: len(ds.Data[0]), workers: 1,
	}
	for s := range 4 {
		var part [][]float32
		for gid := s; gid < len(ds.Data); gid += 4 {
			legacy.globalID[s] = append(legacy.globalID[s], gid)
			part = append(part, ds.Data[gid])
		}
		ix, err := New(part, Flat, &Options{Seed: int64(s)})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			if err := ix.Enable(m, nil); err != nil {
				t.Fatal(err)
			}
		}
		legacy.shards = append(legacy.shards, ix)
	}
	legacy.initFanPool()
	expect("with a rotation per shard", legacy, 3, 1)
	t.Logf("%d of %d fans at SearchWorkers 2 projected twice, %d more often", twice, fans, more)
	if more*10 > fans {
		t.Errorf("%d of %d fans at SearchWorkers 2 took more than one Reset", more, fans)
	}
}

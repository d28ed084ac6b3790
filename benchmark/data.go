package main

import (
	"fmt"
	"math"
	"math/rand"

	"resinfer"
	"resinfer/internal/dataset"
)

// poolRows is how many extra rows every run generates after the base
// rows. Only the mutation plan reads them, but generating them always
// keeps the base rows and the queries of one seed identical across
// workloads. A plan that needs more rows cycles through the pool.
const poolRows = 4096

// driftShare is how far the last pool row is shifted, on every
// coordinate, in units of the data's root-mean-square coordinate spread:
// ingested rows wander away from the distribution the comparators were
// trained on, which is what makes retraining at compaction matter.
const driftShare = 0.5

// env is everything one run derives from its seed before the program
// under test sees anything: base rows, queries, their order, the exact
// answers, and rows to ingest.
type env struct {
	p       params
	seed    int64
	scratch string // directory for WAL files, inside the checkout

	base    [][]float32
	pool    [][]float32 // drifted rows for Add and Upsert
	queries [][]float32
	order   []int   // order[i] is the query the i-th search uses
	truth   [][]int // exact k nearest base rows per query
}

func newEnv(p params, seed int64, scratch string) (*env, error) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "msong-like", N: p.N + poolRows, Dim: p.Dim, Queries: p.Queries,
		VE32: p.VE32, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	e := &env{p: p, seed: seed, scratch: scratch,
		base: ds.Data[:p.N], pool: ds.Data[p.N:], queries: ds.Queries}
	step := driftShare * rmsSpread(e.base) / float64(len(e.pool)-1)
	for i, row := range e.pool {
		bias := float32(step * float64(i))
		for j := range row {
			row[j] += bias
		}
	}
	e.order = rand.New(rand.NewSource(seed + 1)).Perm(len(e.queries))
	e.truth, err = dataset.BruteForceKNN(e.base, e.queries, p.K, 0)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// rmsSpread is the root-mean-square deviation of a coordinate from its
// column mean.
func rmsSpread(rows [][]float32) float64 {
	dim := len(rows[0])
	mean := make([]float64, dim)
	for _, r := range rows {
		for j, x := range r {
			mean[j] += float64(x)
		}
	}
	var ss float64
	for _, r := range rows {
		for j, x := range r {
			d := float64(x) - mean[j]/float64(len(rows))
			ss += d * d
		}
	}
	return math.Sqrt(ss / float64(len(rows)*dim))
}

func (e *env) indexOptions() *resinfer.Options {
	return &resinfer.Options{HNSWM: e.p.M, HNSWEfConstruction: e.p.EfConstruction, Seed: e.seed}
}

type opKind uint8

const (
	opAdd opKind = iota
	opUpsert
	opDelete
)

// mutOp is one planned mutation. id is the target of an Upsert or
// Delete; vec is the row an Add or Upsert writes.
type mutOp struct {
	kind opKind
	id   int
	vec  []float32
}

// planner hands out the seed's mutation sequence across successive
// drives of one fixture: 80 % Add of the next pool row, 10 % Upsert
// overwriting a live base row with a pool row, 10 % Delete of a live
// base row. Targets are base rows not yet deleted, so every planned
// operation succeeds whatever IDs the index assigns to added rows.
type planner struct {
	e    *env
	rng  *rand.Rand
	live []int // undeleted base IDs; deletions pop from the end
	next int   // next pool row
}

func newPlanner(e *env) planner {
	rng := rand.New(rand.NewSource(e.seed + 2))
	return planner{e: e, rng: rng, live: rng.Perm(len(e.base))}
}

func (pl *planner) row() []float32 {
	r := pl.e.pool[pl.next%len(pl.e.pool)]
	pl.next++
	return r
}

func (pl *planner) draw(n int) []mutOp {
	plan := make([]mutOp, n)
	for i := range plan {
		switch x := pl.rng.Intn(10); {
		case x == 0 && len(pl.live) > len(pl.e.base)/2:
			last := len(pl.live) - 1
			plan[i] = mutOp{kind: opDelete, id: pl.live[last]}
			pl.live = pl.live[:last]
		case x == 1:
			plan[i] = mutOp{kind: opUpsert, id: pl.live[pl.rng.Intn(len(pl.live))], vec: pl.row()}
		default:
			plan[i] = mutOp{kind: opAdd, vec: pl.row()}
		}
	}
	return plan
}

// checkNeighbors verifies the shape every search result must have:
// exactly k hits, distances ascending, IDs in [0, idLimit).
func checkNeighbors(ns []resinfer.Neighbor, k, idLimit int) error {
	if len(ns) != k {
		return fmt.Errorf("got %d neighbours, want %d", len(ns), k)
	}
	for i, n := range ns {
		if n.ID < 0 || n.ID >= idLimit {
			return fmt.Errorf("neighbour %d has ID %d outside [0,%d)", i, n.ID, idLimit)
		}
		if i > 0 && n.Distance < ns[i-1].Distance {
			return fmt.Errorf("neighbour %d distance %g below its predecessor's %g", i, n.Distance, ns[i-1].Distance)
		}
	}
	return nil
}

func neighborIDs(ns []resinfer.Neighbor) []int {
	ids := make([]int, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

// Package hnsw implements the Hierarchical Navigable Small World graph
// index (Malkov & Yashunin, TPAMI 2020) — the graph-based AKNN substrate
// of the paper's evaluation. Construction uses exact distances; search
// takes any core.DCO, so the same graph serves HNSW (exact), HNSW++
// (ADSampling) and the HNSW-DDC* variants by swapping the comparator.
//
// The layer-0 search is HNSW++ as ADSampling defines it (Gao & Long,
// SIGMOD 2023): the comparator prunes against the k-th exact distance,
// not the beam's ef-th, and a pruned candidate still steers the beam by
// its estimated distance (see SearchEval).
//
// Build inserts in batch-synchronous rounds (ParlayANN's scheme, Manohar et
// al., PPoPP 2024). Node 0 starts the graph; nodes 1…n−1 follow in batches
// [lo, lo+min(lo, max(1, n/50))), so a batch never outgrows the graph it
// joins. Phase 1: every batch node searches the graph as the batch found it
// and writes only its own lists. Phase 2: the one worker that owns a target
// appends its back-links in ascending node id and shrinks the list once if
// it overflowed. Neither phase writes a list another goroutine reads, so
// the build takes no lock, and the graph — and every byte Encode writes —
// is a pure function of (data, cfg) at any worker count. Built or loaded,
// the lists end up packed in one slab in node order.
//
// The graph is topology only: Build reads the rows while it inserts and
// keeps none of them. A search reads distances through its evaluator.
package hnsw

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"resinfer/internal/core"
	"resinfer/internal/heap"
	"resinfer/internal/par"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Config controls graph construction.
type Config struct {
	// M is the number of bidirectional links per node on upper layers
	// (layer 0 allows 2M); default 16, matching the paper's setting.
	M int
	// EfConstruction is the beam width during insertion; default 200.
	// The paper uses 500; the harness overrides per experiment.
	EfConstruction int
	Seed           int64
	// Workers is the number of building goroutines; default GOMAXPROCS, at
	// most n-1. It sets the speed only: every count builds the same graph.
	Workers int
}

// Index is a built HNSW graph over a fixed dataset. Search is safe for
// concurrent use; the graph is immutable after Build.
type Index struct {
	dim      int
	m        int
	mMax0    int
	efCon    int
	entry    int32
	maxLevel int
	// links[node][level] holds the node's neighbors at that level;
	// len(links[node]) == levels(node)+1.
	links [][][]int32
	// ctxPool recycles per-search scratch (epoch-stamped visited marks, the
	// beam and the result queue) so steady-state searches allocate nothing.
	ctxPool sync.Pool
}

// searchCtx is the per-search scratch recycled by ctxPool: the layer-0
// beam w, the k-sized result queue r, and the visited array. That array is
// epoch-stamped: marking is visited[i] = epoch, so consecutive searches
// skip the O(n) clear.
type searchCtx struct {
	visited []uint32
	epoch   uint32
	w       heap.Beam
	r       heap.ResultQueue
}

func newIndex(dim, m, mMax0, efCon int, entry int32, maxLevel int, links [][][]int32) *Index {
	idx := &Index{
		dim: dim, m: m, mMax0: mMax0, efCon: efCon,
		entry: entry, maxLevel: maxLevel, links: links,
	}
	n := len(links)
	idx.ctxPool.New = func() any {
		return &searchCtx{visited: make([]uint32, n)}
	}
	return idx
}

// batchFrac caps a batch at n/batchFrac nodes: a batch is as large as the
// graph it joins until that reaches 2 % of n.
const batchFrac = 50

// Build constructs the graph over the rows of data using exact distances.
func Build(data *store.Matrix, cfg Config) (*Index, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("hnsw: empty data")
	}
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.EfConstruction <= 0 {
		cfg.EfConstruction = 200
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = cfg.M
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	n := data.Rows()
	idx := newIndex(data.Dim(), cfg.M, 2*cfg.M, cfg.EfConstruction, 0, 0, make([][][]int32, n))
	mult := 1 / math.Log(float64(cfg.M))
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Levels are pre-drawn as every node's list headers, before the first
	// batch: the level of node i is len(links[i])-1, and no header moves.
	for i := range idx.links {
		idx.links[i] = make([][]int32, 1+int(math.Floor(-math.Log(1-rng.Float64())*mult)))
	}
	idx.maxLevel = len(idx.links[0]) - 1

	workers := min(cfg.Workers, n-1)
	scratch := make([]*buildCtx, workers)
	for w := range scratch {
		scratch[w] = &buildCtx{data: data, visited: make([]uint32, n)}
	}
	for lo, hi := 1, 0; lo < n; lo = hi {
		hi = min(n, lo+min(lo, max(1, n/batchFrac)))
		par.Range(workers, workers, func(w, _ int) {
			for i := lo + w; i < hi; i += workers {
				idx.link(i, scratch[w])
			}
		})
		par.Range(workers, workers, func(w, _ int) { idx.wire(lo, hi, w, workers, scratch[w]) })
		for i := lo; i < hi; i++ {
			if l := len(idx.links[i]) - 1; l > idx.maxLevel {
				idx.maxLevel, idx.entry = l, int32(i)
			}
		}
	}
	pack(idx.links)
	return idx, nil
}

// buildCtx is one worker's scratch: the rows the graph is built over (the
// built Index keeps none), searchCtx's visited marks (stamped once per
// layer a node searches, so the epoch cannot wrap) and beam, the buffers of
// a layer search or a shrink, and the (node, level) lists a batch
// overfilled. The pad keeps the beam header a cache line from the next
// worker's: two workers writing them on one line search a quarter slower.
type buildCtx struct {
	data        *store.Matrix
	visited     []uint32
	epoch       uint32
	w           heap.Beam
	found, kept []heap.Item
	full        [][2]int32
	_           [64]byte
}

// link is phase 1 for node i: it searches the graph as its batch found it,
// entry point included, and writes the selections as i's own lists. Every
// list it reads belongs to a node before the batch, and nothing writes
// those until phase 2. Above i's level the search is a beam of one, which
// is greedy descent: it admits only strictly closer nodes, and a visited
// node is never closer than the current best.
func (idx *Index) link(i int, s *buildCtx) {
	ep, maxL := idx.entry, idx.maxLevel
	level, q := len(idx.links[i])-1, s.data.Row(i)
	curDist := vec.L2Sq(q, s.data.Row(int(ep)))
	for l := maxL; l >= 0; l-- {
		ef := idx.efCon
		if l > level {
			ef = 1
		}
		found := idx.searchLayer(q, ep, curDist, l, ef, s)
		ep, curDist = int32(found[0].ID), found[0].Dist
		if l > level {
			continue
		}
		s.kept = idx.selectNeighbors(s.data, found, idx.m, s.kept[:0])
		lst := make([]int32, 0, idx.maxConn(l)+1)
		for _, k := range s.kept {
			lst = append(lst, int32(k.ID))
		}
		idx.links[i][l] = lst
	}
}

// wire is phase 2 for batch [lo, hi): worker w of workers appends the
// back-links to the targets it owns, those ≡ w mod workers, walking the
// batch in ascending node id, then re-selects each list that overflowed,
// once — a hub that gains k links in a batch is shrunk once, not k times.
// Every target sees the same appends in the same order whoever owns it, so
// the graph does not depend on the worker count.
func (idx *Index) wire(lo, hi, w, workers int, s *buildCtx) {
	s.full = s.full[:0]
	for i := lo; i < hi; i++ {
		for l, own := range idx.links[i] {
			for _, t := range own {
				if int(t)%workers != w {
					continue
				}
				idx.links[t][l] = append(idx.links[t][l], int32(i))
				if len(idx.links[t][l]) == idx.maxConn(l)+1 {
					s.full = append(s.full, [2]int32{t, int32(l)})
				}
			}
		}
	}
	for _, f := range s.full {
		t, l := f[0], int(f[1])
		idx.links[t][l] = idx.shrink(t, idx.links[t][l], idx.maxConn(l), s)
	}
}

// maxConn is the degree cap at layer l.
func (idx *Index) maxConn(l int) int {
	if l == 0 {
		return idx.mMax0
	}
	return idx.m
}

// searchLayer is the construction-time beam search at layer l with exact
// distances. It returns up to ef candidates in ascending distance order,
// valid until the worker's next search or shrink.
func (idx *Index) searchLayer(q []float32, ep int32, epDist float32, l, ef int, s *buildCtx) []heap.Item {
	s.epoch++
	s.visited[ep] = s.epoch
	s.w.Reset(ef)
	s.w.Push(int(ep), epDist)
	for c, ok := s.w.Pop(); ok; c, ok = s.w.Pop() {
		for _, nb := range idx.links[c.ID][l] {
			if s.visited[nb] == s.epoch {
				continue
			}
			s.visited[nb] = s.epoch
			s.w.Push(int(nb), vec.L2Sq(q, s.data.Row(int(nb))))
		}
	}
	s.found = s.w.AppendSorted(s.found[:0])
	return s.found
}

// selectNeighbors applies the HNSW heuristic (Algorithm 4): keep a
// candidate only if it is closer to the query than to every already
// selected neighbor, which spreads links across directions. The selection
// is appended to dst, which must be empty.
func (idx *Index) selectNeighbors(data *store.Matrix, cands []heap.Item, m int, dst []heap.Item) []heap.Item {
	if len(cands) <= m {
		return append(dst, cands...)
	}
	for _, c := range cands {
		if len(dst) >= m {
			break
		}
		good := true
		for _, s := range dst {
			if vec.L2Sq(data.Row(c.ID), data.Row(s.ID)) < c.Dist {
				good = false
				break
			}
		}
		if good {
			dst = append(dst, c)
		}
	}
	// Fill remaining slots with the nearest discarded candidates. The kept
	// ones are a subsequence of cands, so one index into each finds them.
	for c, k, kept := 0, 0, len(dst); len(dst) < m && c < len(cands); c++ {
		if k < kept && cands[c].ID == dst[k].ID {
			k++
		} else {
			dst = append(dst, cands[c])
		}
	}
	return dst
}

// shrink re-selects maxConn neighbors for node nb from the overflowing
// list, in place, using the same heuristic. Only nb's owner calls it.
func (idx *Index) shrink(nb int32, lst []int32, maxConn int, s *buildCtx) []int32 {
	row := s.data.Row(int(nb))
	s.found = s.found[:0]
	for _, o := range lst {
		s.found = append(s.found, heap.Item{ID: int(o), Dist: vec.L2Sq(row, s.data.Row(int(o)))})
	}
	slices.SortStableFunc(s.found, func(a, b heap.Item) int { return cmp.Compare(a.Dist, b.Dist) })
	s.kept = idx.selectNeighbors(s.data, s.found, maxConn, s.kept[:0])
	lst = lst[:0]
	for _, k := range s.kept {
		lst = append(lst, int32(k.ID))
	}
	return lst
}

// pack moves every adjacency list into one slab and every node's level
// headers into one array, both in node order, so a walk's lists sit where
// the node ids say and not where the allocator put them. Each list keeps
// cap == len: appending to one cannot reach the next.
func pack(links [][][]int32) {
	var nHdr, nIDs int
	for _, perLevel := range links {
		nHdr += len(perLevel)
		for _, lst := range perLevel {
			nIDs += len(lst)
		}
	}
	hdrs, slab := make([][]int32, 0, nHdr), make([]int32, 0, nIDs)
	for i, perLevel := range links {
		h := len(hdrs)
		for _, lst := range perLevel {
			at := len(slab)
			slab = append(slab, lst...)
			hdrs = append(hdrs, slab[at:len(slab):len(slab)])
		}
		links[i] = hdrs[h:len(hdrs):len(hdrs)]
	}
}

// Result is a search hit.
type Result = heap.Item

// SearchEval returns the approximate k nearest neighbors of the query ev
// was Reset to, with beam width ef, clamped up to k and down to the point
// count, which no beam can exceed: the caller owns ev (typically pooled)
// and receives the hits appended to dst in ascending distance order. size
// must be the evaluator's point count; work counters accumulate in
// ev.Stats().
//
// The layer-0 walk is HNSW++ (Gao & Long, SIGMOD 2023): a k-sized result
// queue r holds exact distances only, and its k-th distance is the τ every
// Compare prunes against. The ef-sized beam w only steers the walk: every
// neighbour is offered to it, a pruned one at the estimate Compare
// returned. The answer is r, so no estimate reaches it; under the exact
// comparator, which never prunes, r holds the k smallest exact distances
// the beam visited.
func (idx *Index) SearchEval(ev core.QueryEvaluator, k, ef, size int, dst []Result) ([]Result, error) {
	return idx.SearchMasked(ev, k, ef, size, nil, dst)
}

// SearchMasked is SearchEval whose answer holds no row mask hides: a
// masked node, the entry point included, is still Compared and still
// steers the beam w, so the walk passes through it, but it never enters
// the result queue r, whose τ is then the k-th unmasked distance. A nil
// mask hides nothing.
func (idx *Index) SearchMasked(ev core.QueryEvaluator, k, ef, size int, mask core.RowMask, dst []Result) ([]Result, error) {
	if size != len(idx.links) {
		return nil, fmt.Errorf("hnsw: DCO over %d points, index over %d", size, len(idx.links))
	}
	if k <= 0 {
		return nil, errors.New("hnsw: k must be positive")
	}
	ef = min(max(ef, k), size)
	ep := idx.entry
	curDist := ev.Distance(int(ep))
	for l := idx.maxLevel; l > 0; l-- {
		for {
			improved := false
			if l < len(idx.links[ep]) {
				for _, nb := range idx.links[ep][l] {
					d := ev.Distance(int(nb))
					if d < curDist {
						curDist, ep, improved = d, nb, true
					}
				}
			}
			if !improved {
				break
			}
		}
	}
	ctx := idx.ctxPool.Get().(*searchCtx)
	ctx.epoch++
	if ctx.epoch == 0 { // wrapped: clear the stale marks once
		for i := range ctx.visited {
			ctx.visited[i] = 0
		}
		ctx.epoch = 1
	}
	visited, epoch := ctx.visited, ctx.epoch
	visited[ep] = epoch
	w, r := &ctx.w, &ctx.r
	w.Reset(ef)
	r.Reset(min(k, size))
	w.Push(int(ep), curDist)
	if !mask.Has(int(ep)) {
		r.Push(int(ep), curDist)
	}
	for c, ok := w.Pop(); ok; c, ok = w.Pop() {
		for _, nb := range idx.links[c.ID][0] {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			d, pruned := ev.Compare(int(nb), r.Threshold())
			if !pruned && !mask.Has(int(nb)) {
				r.Push(int(nb), d)
			}
			w.Push(int(nb), d)
		}
	}
	dst = r.AppendSorted(dst)
	idx.ctxPool.Put(ctx)
	return dst, nil
}

// ScanFrom is the break-even beam width ⌈n / 2M⌉: from it on, ef layer-0
// expansions read about as many neighbour lists as there are points, so a
// caller that holds the rows scans them instead. ef ≥ ScanFrom() is
// ef·2M ≥ n without the product that could overflow.
func (idx *Index) ScanFrom() int { return (len(idx.links) + idx.mMax0 - 1) / idx.mMax0 }

// Dim returns the indexed dimensionality.
func (idx *Index) Dim() int { return idx.dim }

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.links) }

// MaxLevel returns the top layer of the graph.
func (idx *Index) MaxLevel() int { return idx.maxLevel }

// Entry returns the entry-point node id.
func (idx *Index) Entry() int32 { return idx.entry }

// Neighbors returns node's adjacency at the given level (nil when the node
// does not reach that level). The returned slice is the live adjacency —
// callers must not modify it.
func (idx *Index) Neighbors(node int32, level int) []int32 {
	if int(node) >= len(idx.links) || level >= len(idx.links[node]) {
		return nil
	}
	return idx.links[node][level]
}

// GraphBytes reports the memory consumed by adjacency lists (Exp-3's index
// space accounting).
func (idx *Index) GraphBytes() int64 {
	var total int64
	for _, perLevel := range idx.links {
		for _, lst := range perLevel {
			total += int64(len(lst)) * 4
		}
	}
	return total
}

// Package hnsw implements the Hierarchical Navigable Small World graph
// index (Malkov & Yashunin, TPAMI 2020) — the graph-based AKNN substrate
// of the paper's evaluation. Construction uses exact distances; search
// takes any core.DCO, so the same graph serves HNSW (exact), HNSW++
// (ADSampling) and the HNSW-DDC* variants by swapping the comparator.
//
// Build inserts from Config.Workers goroutines under one mutex per node
// (hnswlib's scheme): a searcher copies the popped node's list out from
// under its lock, a wirer locks one neighbour at a time, and one more mutex
// guards the entry point, held for a whole insert only by a node that opens
// a new top layer. A node's back-links go in bottom-up, after its searches.
// Built or loaded, the lists end up packed in one slab in node order.
package hnsw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"resinfer/internal/core"
	"resinfer/internal/heap"
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
	// Workers is the number of inserting goroutines; default GOMAXPROCS, at
	// most n-1. Levels are drawn from Seed alone, but which neighbours an
	// insert finds depends on what was wired when it searched: the graph is
	// a pure function of (data, cfg) only at Workers: 1.
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
	data  *store.Matrix
	// ctxPool recycles per-search scratch (epoch-stamped visited marks and
	// both traversal queues) so steady-state searches allocate nothing.
	ctxPool sync.Pool
}

// searchCtx is the per-search scratch recycled by ctxPool. The visited
// array is epoch-stamped: marking is visited[i] = epoch, so consecutive
// searches skip the O(n) clear.
type searchCtx struct {
	visited []uint32
	epoch   uint32
	cands   *heap.MinQueue
	w       *heap.ResultQueue
}

func newIndex(dim, m, mMax0, efCon int, entry int32, maxLevel int, links [][][]int32, data *store.Matrix) *Index {
	idx := &Index{
		dim: dim, m: m, mMax0: mMax0, efCon: efCon,
		entry: entry, maxLevel: maxLevel, links: links, data: data,
	}
	n := data.Rows()
	idx.ctxPool.New = func() any {
		return &searchCtx{
			visited: make([]uint32, n),
			cands:   heap.NewMinQueue(64),
			w:       heap.NewResultQueue(16),
		}
	}
	return idx
}

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
	b := &builder{
		Index: newIndex(data.Dim(), cfg.M, 2*cfg.M, cfg.EfConstruction, 0, 0, make([][][]int32, n), data),
		locks: make([]sync.Mutex, n),
	}
	mult := 1 / math.Log(float64(cfg.M))
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Levels are pre-drawn as every node's list headers, before the first
	// insert: whoever reaches a node finds them, and no header moves.
	for i := range b.links {
		b.links[i] = make([][]int32, 1+int(math.Floor(-math.Log(1-rng.Float64())*mult)))
	}
	b.maxLevel = len(b.links[0]) - 1

	var wg sync.WaitGroup
	for w := min(cfg.Workers, n-1); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A new index's pool hands out epoch 0 and a build stamps once per
			// layer search, a few per node: it cannot wrap.
			s := &buildCtx{searchCtx: b.ctxPool.Get().(*searchCtx)}
			defer b.ctxPool.Put(s.searchCtx)
			for i := int(b.next.Add(1)); i < n; i = int(b.next.Add(1)) {
				b.insert(i, s)
			}
		}()
	}
	wg.Wait()
	pack(b.links)
	return b.Index, nil
}

// builder is what exists only while Build runs. locks[i] guards every list
// of node i (a goroutine holds at most one at a time); top guards entry and
// maxLevel; next hands out node ids in order.
type builder struct {
	*Index
	locks []sync.Mutex
	top   sync.Mutex
	next  atomic.Int64
}

// buildCtx is one worker's scratch: the search scratch SearchEval uses, the
// copy of a locked node's neighbours, and the candidate and selection
// buffers of a layer search or a shrink.
type buildCtx struct {
	*searchCtx
	nbrs        []int32
	found, kept []heap.Item
}

// insert links node i into the graph. Its own lists are set as its layer
// searches end, top-down, while nothing links to it; its back-links then go
// in bottom-up, so whoever reaches i at layer l finds its lists at and below
// l in place. Only a node that opens a new top layer holds top throughout.
func (b *builder) insert(i int, s *buildCtx) {
	level, q := len(b.links[i])-1, b.data.Row(i)
	b.top.Lock()
	ep, maxL := b.entry, b.maxLevel
	if level > maxL {
		defer b.top.Unlock()
	} else {
		b.top.Unlock()
	}
	// Greedy descent on the layers above the node's level.
	curDist := vec.L2Sq(q, b.data.Row(int(ep)))
	for l := maxL; l > level; l-- {
		for improved := true; improved; {
			improved = false
			for _, nb := range b.neighbors(ep, l, s) {
				if d := vec.L2Sq(q, b.data.Row(int(nb))); d < curDist {
					curDist, ep, improved = d, nb, true
				}
			}
		}
	}
	from := min(level, maxL)
	for l := from; l >= 0; l-- {
		found := b.searchLayer(q, ep, curDist, l, s)
		ep, curDist = int32(found[0].ID), found[0].Dist
		s.kept = b.selectNeighbors(found, b.m, s.kept[:0])
		lst := make([]int32, 0, b.maxConn(l)+1)
		for _, k := range s.kept {
			lst = append(lst, int32(k.ID))
		}
		b.locks[i].Lock()
		b.links[i][l] = lst
		b.locks[i].Unlock()
	}
	for l := 0; l <= from; l++ {
		maxConn := b.maxConn(l)
		// The copy is the selection itself: nobody appended to i's layer-l
		// list before its first back-link at l went in.
		for _, nb := range b.neighbors(int32(i), l, s) {
			b.locks[nb].Lock()
			lst := append(b.links[nb][l], int32(i))
			if len(lst) > maxConn {
				lst = b.shrink(nb, lst, maxConn, s)
			}
			b.links[nb][l] = lst
			b.locks[nb].Unlock()
		}
	}
	if level > maxL {
		b.maxLevel, b.entry = level, int32(i)
	}
}

// maxConn is the degree cap at layer l.
func (idx *Index) maxConn(l int) int {
	if l == 0 {
		return idx.mMax0
	}
	return idx.m
}

// neighbors copies node's layer-l list out from under its lock into the
// worker's scratch; the copy is valid until the worker's next call.
func (b *builder) neighbors(node int32, l int, s *buildCtx) []int32 {
	b.locks[node].Lock()
	s.nbrs = append(s.nbrs[:0], b.links[node][l]...)
	b.locks[node].Unlock()
	return s.nbrs
}

// searchLayer is the construction-time beam search at layer l with exact
// distances. It returns up to efCon candidates in ascending distance order,
// ep among them, valid until the worker's next search or shrink.
func (b *builder) searchLayer(q []float32, ep int32, epDist float32, l int, s *buildCtx) []heap.Item {
	s.epoch++
	s.visited[ep] = s.epoch
	s.cands.Reset()
	s.w.Reset(b.efCon)
	s.cands.Push(int(ep), epDist)
	s.w.Push(int(ep), epDist)
	for s.cands.Len() > 0 {
		c, _ := s.cands.PopMin()
		if c.Dist > s.w.Threshold() {
			break
		}
		for _, nb := range b.neighbors(int32(c.ID), l, s) {
			if s.visited[nb] == s.epoch {
				continue
			}
			s.visited[nb] = s.epoch
			d := vec.L2Sq(q, b.data.Row(int(nb)))
			if !s.w.Full() || d < s.w.Threshold() {
				s.cands.Push(int(nb), d)
				s.w.Push(int(nb), d)
			}
		}
	}
	s.found = s.w.AppendSorted(s.found[:0])
	return s.found
}

// selectNeighbors applies the HNSW heuristic (Algorithm 4): keep a
// candidate only if it is closer to the query than to every already
// selected neighbor, which spreads links across directions. The selection
// is appended to dst, which must be empty.
func (idx *Index) selectNeighbors(cands []heap.Item, m int, dst []heap.Item) []heap.Item {
	if len(cands) <= m {
		return append(dst, cands...)
	}
	for _, c := range cands {
		if len(dst) >= m {
			break
		}
		good := true
		for _, s := range dst {
			if vec.L2Sq(idx.data.Row(c.ID), idx.data.Row(s.ID)) < c.Dist {
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
// list, in place, using the same heuristic. The caller holds nb's lock.
func (b *builder) shrink(nb int32, lst []int32, maxConn int, s *buildCtx) []int32 {
	row := b.data.Row(int(nb))
	s.found = s.found[:0]
	for _, o := range lst {
		s.found = append(s.found, heap.Item{ID: int(o), Dist: vec.L2Sq(row, b.data.Row(int(o)))})
	}
	sortItems(s.found)
	s.kept = b.selectNeighbors(s.found, maxConn, s.kept[:0])
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

func sortItems(items []heap.Item) {
	// Insertion sort: candidate lists are short (≤ a few hundred).
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].Dist < items[j-1].Dist; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// Result is a search hit.
type Result = heap.Item

// SearchEval returns the approximate k nearest neighbors of the query ev
// was Reset to, with beam width ef (clamped up to k): the caller owns ev
// (typically pooled) and receives the hits appended to dst in ascending
// distance order. size must be the evaluator's point count; work counters
// accumulate in ev.Stats().
func (idx *Index) SearchEval(ev core.QueryEvaluator, k, ef, size int, dst []Result) ([]Result, error) {
	if size != idx.data.Rows() {
		return nil, fmt.Errorf("hnsw: DCO over %d points, index over %d", size, idx.data.Rows())
	}
	if k <= 0 {
		return nil, errors.New("hnsw: k must be positive")
	}
	if ef < k {
		ef = k
	}
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
	// Layer-0 beam search driven by the DCO: candidates whose corrected
	// approximate distance already exceeds the beam threshold are pruned
	// without an exact computation (the refinement loop of §I).
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
	cands, w := ctx.cands, ctx.w
	cands.Reset()
	w.Reset(ef)
	cands.Push(int(ep), curDist)
	w.Push(int(ep), curDist)
	for cands.Len() > 0 {
		c, _ := cands.PopMin()
		if c.Dist > w.Threshold() {
			break
		}
		for _, nb := range idx.links[c.ID][0] {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			d, pruned := ev.Compare(int(nb), w.Threshold())
			if pruned {
				continue
			}
			if !w.Full() || d < w.Threshold() {
				cands.Push(int(nb), d)
				w.Push(int(nb), d)
			}
		}
	}
	start := len(dst)
	dst = w.AppendSorted(dst)
	if len(dst)-start > k {
		dst = dst[:start+k]
	}
	idx.ctxPool.Put(ctx)
	return dst, nil
}

// Dim returns the indexed dimensionality.
func (idx *Index) Dim() int { return idx.dim }

// Len returns the number of indexed points.
func (idx *Index) Len() int { return idx.data.Rows() }

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

// Data returns the indexed vectors (read-only by convention).
func (idx *Index) Data() *store.Matrix { return idx.data }

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

// Package hnsw implements the Hierarchical Navigable Small World graph
// index (Malkov & Yashunin, TPAMI 2020) — the graph-based AKNN substrate
// of the paper's evaluation. Construction uses exact distances; search
// takes any core.DCO, so the same graph serves HNSW (exact), HNSW++
// (ADSampling) and the HNSW-DDC* variants by swapping the comparator.
package hnsw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

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
	// Workers parallelizes insertion; default GOMAXPROCS.
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
	idx := newIndex(data.Dim(), cfg.M, 2*cfg.M, cfg.EfConstruction, 0, 0, make([][][]int32, n), data)
	mult := 1 / math.Log(float64(cfg.M))
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Pre-draw levels so parallel insertion stays deterministic in
	// structure-independent state.
	levels := make([]int, n)
	for i := range levels {
		levels[i] = int(math.Floor(-math.Log(1-rng.Float64()) * mult))
	}
	idx.links[0] = make([][]int32, levels[0]+1)
	idx.maxLevel = levels[0]

	var mu sync.RWMutex
	var wg sync.WaitGroup
	next := make(chan int, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				idx.insert(i, levels[i], &mu)
			}
		}()
	}
	for i := 1; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return idx, nil
}

// insert wires node i with the given level into the graph. Reads take the
// RLock; the final wiring takes the write lock.
func (idx *Index) insert(i, level int, mu *sync.RWMutex) {
	q := idx.data.Row(i)
	nodeLinks := make([][]int32, level+1)

	mu.RLock()
	ep := idx.entry
	maxL := idx.maxLevel
	// Greedy descent on the layers above the node's level.
	curDist := vec.L2Sq(q, idx.data.Row(int(ep)))
	for l := maxL; l > level; l-- {
		ep, curDist = idx.greedyStep(q, ep, curDist, l)
	}
	// Beam search per layer from min(level, maxL) down to 0, collecting
	// neighbor candidates.
	type layerResult struct {
		level int
		cands []heap.Item
	}
	var results []layerResult
	for l := min(level, maxL); l >= 0; l-- {
		w := idx.searchLayerExact(q, ep, curDist, l, idx.efCon, i)
		if len(w) > 0 {
			ep, curDist = int32(w[0].ID), w[0].Dist
		}
		results = append(results, layerResult{l, w})
	}
	mu.RUnlock()

	mu.Lock()
	defer mu.Unlock()
	for _, lr := range results {
		maxConn := idx.m
		if lr.level == 0 {
			maxConn = idx.mMax0
		}
		selected := idx.selectNeighbors(q, lr.cands, idx.m)
		neigh := make([]int32, 0, len(selected))
		for _, s := range selected {
			neigh = append(neigh, int32(s.ID))
		}
		nodeLinks[lr.level] = neigh
		// Bidirectional wiring with shrink on overflow.
		for _, s := range selected {
			nb := int32(s.ID)
			if len(idx.links[nb]) <= lr.level {
				continue // neighbor was wired below this level concurrently
			}
			lst := append(idx.links[nb][lr.level], int32(i))
			if len(lst) > maxConn {
				lst = idx.shrink(nb, lst, maxConn)
			}
			idx.links[nb][lr.level] = lst
		}
	}
	idx.links[i] = nodeLinks
	if level > idx.maxLevel {
		idx.maxLevel = level
		idx.entry = int32(i)
	}
}

// greedyStep walks to the closest neighbor of ep at layer l until no
// improvement. Caller must hold at least the read lock.
func (idx *Index) greedyStep(q []float32, ep int32, curDist float32, l int) (int32, float32) {
	for {
		improved := false
		if int(ep) < len(idx.links) && idx.links[ep] != nil && l < len(idx.links[ep]) {
			for _, nb := range idx.links[ep][l] {
				d := vec.L2Sq(q, idx.data.Row(int(nb)))
				if d < curDist {
					curDist = d
					ep = nb
					improved = true
				}
			}
		}
		if !improved {
			return ep, curDist
		}
	}
}

// searchLayerExact is the construction-time beam search with exact
// distances; skip excludes the node being inserted. Returns candidates in
// ascending distance order.
func (idx *Index) searchLayerExact(q []float32, ep int32, epDist float32, l, ef, skip int) []heap.Item {
	visited := map[int32]struct{}{ep: {}}
	cands := heap.NewMinQueue(ef)
	w := heap.NewResultQueue(ef)
	cands.Push(int(ep), epDist)
	if int(ep) != skip {
		w.Push(int(ep), epDist)
	}
	for cands.Len() > 0 {
		c, _ := cands.PopMin()
		if c.Dist > w.Threshold() {
			break
		}
		node := int32(c.ID)
		if int(node) >= len(idx.links) || idx.links[node] == nil || l >= len(idx.links[node]) {
			continue
		}
		for _, nb := range idx.links[node][l] {
			if _, ok := visited[nb]; ok {
				continue
			}
			visited[nb] = struct{}{}
			d := vec.L2Sq(q, idx.data.Row(int(nb)))
			if !w.Full() || d < w.Threshold() {
				cands.Push(int(nb), d)
				if int(nb) != skip {
					w.Push(int(nb), d)
				}
			}
		}
	}
	return w.Sorted()
}

// selectNeighbors applies the HNSW heuristic (Algorithm 4): keep a
// candidate only if it is closer to the query than to every already
// selected neighbor, which spreads links across directions.
func (idx *Index) selectNeighbors(q []float32, cands []heap.Item, m int) []heap.Item {
	if len(cands) <= m {
		return cands
	}
	selected := make([]heap.Item, 0, m)
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		good := true
		for _, s := range selected {
			if vec.L2Sq(idx.data.Row(c.ID), idx.data.Row(s.ID)) < c.Dist {
				good = false
				break
			}
		}
		if good {
			selected = append(selected, c)
		}
	}
	// Fill remaining slots with the nearest discarded candidates.
	if len(selected) < m {
		chosen := make(map[int]struct{}, len(selected))
		for _, s := range selected {
			chosen[s.ID] = struct{}{}
		}
		for _, c := range cands {
			if len(selected) >= m {
				break
			}
			if _, ok := chosen[c.ID]; !ok {
				selected = append(selected, c)
			}
		}
	}
	return selected
}

// shrink re-selects maxConn neighbors for node nb from the overflowing
// list using the same heuristic.
func (idx *Index) shrink(nb int32, lst []int32, maxConn int) []int32 {
	cands := make([]heap.Item, 0, len(lst))
	for _, o := range lst {
		cands = append(cands, heap.Item{ID: int(o), Dist: vec.L2Sq(idx.data.Row(int(nb)), idx.data.Row(int(o)))})
	}
	sortItems(cands)
	sel := idx.selectNeighbors(idx.data.Row(int(nb)), cands, maxConn)
	out := make([]int32, 0, len(sel))
	for _, s := range sel {
		out = append(out, int32(s.ID))
	}
	return out
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

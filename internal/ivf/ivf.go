// Package ivf implements the inverted-file index (IVF) of §II-A: data is
// clustered with k-means; at query time the nprobe closest clusters are
// scanned through a pluggable core.DCO, so the same index serves IVF
// (exact), IVF++ (ADSampling) and the IVF-DDC* variants. With one list
// (OneList) it is the exhaustive scan of the paper's Table III: every query
// meets every point, and the result queue's threshold prunes most of them.
//
// The scan prunes as ADSampling's IVF++ does: against the k-th distance
// of a k-sized queue of exact distances. It walks each list in blocks of
// core.PruneBlock ids: the evaluator's Prune rules out in bulk the ids its
// first test already rejects under the block's starting τ (ddc-res's
// round 0 over its prefix table, and exact's lower bound over the same
// kind of table, each one kernel call per block), and only the survivors
// are Compared one by one. IVF++'s layout, each list's rows
// stored contiguously, is not done: lists hold ids into the index's one
// matrix.
package ivf

import (
	"errors"
	"fmt"
	"sync"

	"resinfer/internal/core"
	"resinfer/internal/heap"
	"resinfer/internal/kmeans"
	"resinfer/internal/store"
)

// Config controls index construction.
type Config struct {
	// NList is the number of clusters; default max(16, √n) (the paper uses
	// 4096 at million scale, ≈ √n points per list).
	NList int
	Seed  int64
}

// Index is a built IVF index. Search is safe for concurrent use.
type Index struct {
	dim       int
	centroids *store.Matrix
	lists     [][]int32
	size      int
	// ctxPool recycles per-search scratch (result queue, probe order,
	// centroid distances) so steady-state searches allocate nothing.
	ctxPool sync.Pool
}

// searchCtx is the per-search scratch recycled by ctxPool.
type searchCtx struct {
	rq     *heap.ResultQueue
	probes []int
	cdists []float32
	keep   []int32 // a block's survivors of ev.Prune
}

// Build clusters the rows of data into cfg.NList inverted lists.
func Build(data *store.Matrix, cfg Config) (*Index, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("ivf: empty data")
	}
	n := data.Rows()
	if cfg.NList <= 0 {
		cfg.NList = 16
		for cfg.NList*cfg.NList < n {
			cfg.NList *= 2
		}
	}
	if cfg.NList > n {
		cfg.NList = n
	}
	res, err := kmeans.Train(data, kmeans.Config{K: cfg.NList, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("ivf: clustering: %w", err)
	}
	idx := newIndex(data.Dim(), res.Centroids, make([][]int32, cfg.NList), n)
	for i, c := range res.Assign {
		idx.lists[c] = append(idx.lists[c], int32(i))
	}
	return idx, nil
}

// OneList is the flat index over n points of dimensionality dim: one zero
// centroid and one list 0…n−1, so every search scans every point in id
// order, whatever its nprobe. It runs no k-means.
func OneList(n, dim int) (*Index, error) {
	zero, err := store.New(1, dim)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("ivf: invalid one-list shape %dx%d", n, dim)
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return newIndex(dim, zero, [][]int32{all}, n), nil
}

func newIndex(dim int, centroids *store.Matrix, lists [][]int32, size int) *Index {
	idx := &Index{dim: dim, centroids: centroids, lists: lists, size: size}
	idx.ctxPool.New = func() any {
		return &searchCtx{rq: heap.NewResultQueue(16), keep: make([]int32, 0, core.PruneBlock)}
	}
	return idx
}

// Result is a search hit.
type Result = heap.Item

var errK = errors.New("ivf: k must be positive")

// SearchEval scans the nprobe closest inverted lists through ev and
// returns the approximate k nearest neighbors: the caller owns ev
// (typically pooled and already Reset to q) and receives the hits appended
// to dst in ascending distance order. q is the query in the index's space
// (it drives centroid probing); size must be the evaluator's point count;
// work counters accumulate in ev.Stats(). A k past the point count is
// clamped to it.
//
// A list is scanned core.PruneBlock ids at a time: ev.Prune rules out, in
// bulk, ids Compare would prune under the τ the block starts with, or whose
// distance is at least that τ, and only the survivors are Compared, each
// under the τ of the moment. τ only falls, so this answers exactly as
// Compare over every id (and counts exactly as it, for an evaluator that
// rules out only what Compare would prune).
//
// A survivor mask hides (nil: none) is not Compared, but counted as one
// pruned comparison that read no coordinates, so Comparisons still counts
// every id offered; the answer is the k nearest unmasked ids.
//
//resinfer:noalloc
func (idx *Index) SearchEval(ev core.ResettableEvaluator, q []float32, k, nprobe, size int, mask core.RowMask, dst []Result) ([]Result, error) {
	if size != idx.size {
		//resinfer:alloc-ok cold invalid-argument path
		return nil, fmt.Errorf("ivf: DCO over %d points, index over %d", size, idx.size)
	}
	if k <= 0 {
		return nil, errK
	}
	k = min(k, idx.size)
	if nprobe <= 0 {
		nprobe = 1
	}
	ctx := idx.ctxPool.Get().(*searchCtx)
	ctx.probes, ctx.cdists = kmeans.NearestCentroidsInto(idx.centroids, q, nprobe, ctx.probes, ctx.cdists)
	rq, st := ctx.rq, ev.Stats()
	rq.Reset(k)
	for _, c := range ctx.probes {
		for list := idx.lists[c]; len(list) > 0; {
			blk := list[:min(len(list), core.PruneBlock)]
			list = list[len(blk):]
			for _, id := range ev.Prune(blk, rq.Threshold(), ctx.keep[:0]) {
				if mask.Has(int(id)) {
					st.Comparisons++
					st.Pruned++
					continue
				}
				tau := rq.Threshold()
				d, pruned := ev.Compare(int(id), tau)
				if pruned {
					continue
				}
				if d < tau {
					rq.Push(int(id), d)
				}
			}
		}
	}
	dst = rq.AppendSorted(dst)
	idx.ctxPool.Put(ctx)
	return dst, nil
}

// Dim returns the indexed dimensionality.
func (idx *Index) Dim() int { return idx.dim }

// Len returns the number of indexed points.
func (idx *Index) Len() int { return idx.size }

// NList returns the number of inverted lists.
func (idx *Index) NList() int { return len(idx.lists) }

// Centroids exposes the coarse quantizer (read-only by convention).
func (idx *Index) Centroids() *store.Matrix { return idx.centroids }

// IndexBytes reports the memory held by centroids and lists (Exp-3's space
// accounting).
func (idx *Index) IndexBytes() int64 {
	total := idx.centroids.Bytes()
	for _, l := range idx.lists {
		total += int64(len(l)) * 4
	}
	return total
}

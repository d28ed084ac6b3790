// Package flat implements the exhaustive-scan index: every query compares
// against every point through the DCO. With an approximate comparator this
// is exactly the linear-scan setting of the paper's Table III — the
// threshold of the growing result queue prunes most of the scan — and it
// is the correct choice for small collections where graph construction
// doesn't pay for itself.
package flat

import (
	"errors"
	"fmt"
	"sync"

	"resinfer/internal/core"
	"resinfer/internal/heap"
	"resinfer/internal/store"
)

// Index is a flat index over n points. It stores no per-point state; the
// vectors live in the DCO.
type Index struct {
	size int
	dim  int
	// ctxPool recycles per-search result queues so steady-state searches
	// allocate nothing.
	ctxPool sync.Pool
}

// Build creates a flat index over the rows of data.
func Build(data *store.Matrix) (*Index, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("flat: empty data")
	}
	return New(data.Rows(), data.Dim())
}

// New creates a flat index with explicit dimensions (used by Load paths).
func New(size, dim int) (*Index, error) {
	if size <= 0 || dim <= 0 {
		return nil, errors.New("flat: invalid dimensions")
	}
	idx := &Index{size: size, dim: dim}
	idx.ctxPool.New = func() any { return heap.NewResultQueue(16) }
	return idx, nil
}

// Result is a search hit.
type Result = heap.Item

// SearchEval scans every point through ev, maintaining a k-bounded result
// queue whose threshold drives pruning: the caller owns ev (typically
// pooled and already Reset for this query) and receives the hits appended
// to dst in ascending distance order. The budget parameter of the other
// indexes has no meaning here. size must be the evaluator's point count;
// work counters accumulate in ev.Stats().
func (idx *Index) SearchEval(ev core.QueryEvaluator, k, size int, dst []Result) ([]Result, error) {
	if size != idx.size {
		return nil, fmt.Errorf("flat: DCO over %d points, index over %d", size, idx.size)
	}
	if k <= 0 {
		return nil, errors.New("flat: k must be positive")
	}
	rq := idx.ctxPool.Get().(*heap.ResultQueue)
	rq.Reset(k)
	for id := 0; id < idx.size; id++ {
		tau := rq.Threshold()
		d, pruned := ev.Compare(id, tau)
		if pruned {
			continue
		}
		if d < tau {
			rq.Push(id, d)
		}
	}
	dst = rq.AppendSorted(dst)
	idx.ctxPool.Put(rq)
	return dst, nil
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return idx.size }

// Dim returns the indexed dimensionality.
func (idx *Index) Dim() int { return idx.dim }

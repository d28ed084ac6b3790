package resinfer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// BatchResult holds the outcome for one query of a batch.
type BatchResult struct {
	Neighbors []Neighbor
	Stats     SearchStats
	Err       error
}

// validateBatch checks the shared parameters of a batch once up front so a
// malformed batch fails fast with a single error instead of N goroutines
// each failing identically. userDim is the dimensionality callers present
// queries in.
func validateBatch(queries [][]float32, k, budget, userDim int) error {
	if len(queries) == 0 {
		return errors.New("resinfer: empty query batch")
	}
	if k <= 0 {
		return fmt.Errorf("resinfer: batch k must be positive, got %d", k)
	}
	if budget < 0 {
		return fmt.Errorf("resinfer: batch budget must be non-negative, got %d", budget)
	}
	for qi, q := range queries {
		if err := checkQuery(q, userDim); err != nil {
			return fmt.Errorf("resinfer: batch query %d: %w", qi, err)
		}
	}
	return nil
}

// runBatch hands the query indices 0…n−1 out to up to workers goroutines
// (non-positive: GOMAXPROCS; never more than n), each running worker until
// next is drained, and returns once every worker has returned. A worker
// must drain next.
func runBatch(n, workers int, worker func(next <-chan int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	next := make(chan int, workers) // one index queued per worker keeps each busy
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	for qi := range n {
		next <- qi
	}
	close(next)
	wg.Wait()
}

// SearchBatch runs Search for every query concurrently across up to
// workers goroutines (default GOMAXPROCS). Each worker checks out ONE
// pooled evaluator session and reuses it (evaluator scratch, rotated-query
// and metric-transform buffers) for every query it processes — the batch
// costs workers evaluator activations, not len(queries). The batch
// parameters (k, budget, query dimensions) are validated once up front; a
// malformed batch returns an error before any search runs. Results are
// positionally aligned with queries; per-query failures are reported in
// the result rather than aborting the batch.
func (ix *Index) SearchBatch(queries [][]float32, k int, mode Mode, budget, workers int) ([]BatchResult, error) {
	if err := validateBatch(queries, k, budget, ix.userDim); err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(queries))
	runBatch(len(queries), workers, func(next <-chan int) {
		s, pool, err := ix.acquire(mode)
		if err != nil {
			// Mode not enabled: report on every query this worker
			// would have handled.
			for qi := range next {
				out[qi] = BatchResult{Err: err}
			}
			return
		}
		defer pool.Put(s)
		for qi := range next {
			ns, st, err := ix.searchSession(s, nil, queries[qi], k, budget)
			out[qi] = BatchResult{Neighbors: ns, Stats: st, Err: err}
		}
	})
	return out, nil
}

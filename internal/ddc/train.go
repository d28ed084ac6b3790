package ddc

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"

	"resinfer/internal/heap"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// The learned correction methods (DDCpca, DDCopq) are calibrated on
// labeled (approximate distance, threshold) pairs collected from training
// queries, following §VII-A: each training query's exact K nearest
// neighbors become label-0 (keep) examples with τ set to the K-th
// neighbor distance, and randomly sampled points farther than τ become
// label-1 (prune) examples.

// QuerySamples holds the labeled candidates collected for one training
// query.
type QuerySamples struct {
	Query  []float32
	Tau    float32   // K-th nearest neighbor distance
	IDs    []int     // candidate point ids
	Exact  []float32 // exact distances, aligned with IDs
	Labels []int     // 1 iff Exact > Tau
}

// Each training query labels its collectK nearest neighbors 0 and
// collectNeg random farther points 1.
const (
	collectK   = 100
	collectNeg = 100
)

// CollectSamples labels candidates for every training query against the
// rows of data using exact distances. Queries run in parallel, each on its
// own seeded source, so the samples do not depend on GOMAXPROCS.
func CollectSamples(data *store.Matrix, queries [][]float32, seed int64) ([]QuerySamples, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("ddc: empty data")
	}
	if len(queries) == 0 {
		return nil, errors.New("ddc: no training queries")
	}
	k := min(collectK, data.Rows())
	out := make([]QuerySamples, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for qi := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(qi int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seed + int64(qi)*104729))
			q := queries[qi]
			rq := heap.NewResultQueue(k)
			flat, dim := data.Flat(), data.Dim()
			for id := 0; id < data.Rows(); id++ {
				d := vec.L2SqFlat(q, flat, id*dim)
				if d < rq.Threshold() {
					rq.Push(id, d)
				}
			}
			knn := rq.Sorted()
			tau := knn[len(knn)-1].Dist
			qs := QuerySamples{Query: q, Tau: tau}
			inKNN := make(map[int]struct{}, len(knn))
			for _, it := range knn {
				qs.IDs = append(qs.IDs, it.ID)
				qs.Exact = append(qs.Exact, it.Dist)
				qs.Labels = append(qs.Labels, 0)
				inKNN[it.ID] = struct{}{}
			}
			// Negatives: rejection-sample points beyond tau. Nearly every
			// random point qualifies, so the attempt cap is generous.
			negs := 0
			for attempts := 0; negs < collectNeg && attempts < collectNeg*20; attempts++ {
				id := rng.Intn(data.Rows())
				if _, ok := inKNN[id]; ok {
					continue
				}
				d := vec.L2SqFlat(q, flat, id*dim)
				if d <= tau {
					continue
				}
				qs.IDs = append(qs.IDs, id)
				qs.Exact = append(qs.Exact, d)
				qs.Labels = append(qs.Labels, 1)
				negs++
			}
			out[qi] = qs
		}(qi)
	}
	wg.Wait()
	for qi := range out {
		hasNeg := false
		for _, l := range out[qi].Labels {
			if l == 1 {
				hasNeg = true
				break
			}
		}
		if !hasNeg {
			return nil, errors.New("ddc: a training query produced no label-1 samples; dataset too small or K too large")
		}
	}
	return out, nil
}

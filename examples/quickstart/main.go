// Quickstart: build an HNSW index, enable the paper's DDCres distance
// computation, and compare it with exact search on the same queries.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"resinfer"
)

func main() {
	// Synthesize a small anisotropic dataset: 5000 vectors in 128 dims
	// with correlated coordinates (PCA-friendly, like real embeddings).
	rng := rand.New(rand.NewSource(42))
	const n, dim = 5000, 128
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, dim)
		shared := rng.NormFloat64()
		for j := range row {
			decay := 1.0
			for d := 0; d < j/8; d++ {
				decay *= 0.8
			}
			row[j] = float32(shared*decay + 0.3*rng.NormFloat64()*decay)
		}
		data[i] = row
	}
	query := data[0]

	// Build the graph index. Exact search works out of the box.
	idx, err := resinfer.New(data, resinfer.HNSW, &resinfer.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Enable DDCres: PCA rotation + Gaussian error-quantile pruning.
	if err := idx.Enable(resinfer.DDCRes, nil); err != nil {
		log.Fatal(err)
	}

	for _, mode := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes} {
		start := time.Now()
		var hits []resinfer.Neighbor
		var stats resinfer.SearchStats
		for rep := 0; rep < 200; rep++ {
			hits, stats, err = idx.SearchInto(nil, query, 5, mode, 50)
			if err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start) / 200
		fmt.Printf("%-10s  %v/query  scan-rate %.2f  top-5:", mode, elapsed, stats.ScanRate)
		for _, h := range hits {
			fmt.Printf(" %d(%.3f)", h.ID, h.Distance)
		}
		fmt.Println()
	}
}

// Ivfscan exercises the IVF index path: the inverted-file lists contain
// many far-away points, so threshold pruning is at its most effective
// (the paper reports 96%+ pruned rates in Fig. 10). The example sweeps
// nprobe and prints the recall/QPS/pruned-rate trade-off for exact vs
// DDCres distance computation.
package main

import (
	"fmt"
	"log"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
)

func main() {
	prof, err := dataset.ProfileByName("deep")
	if err != nil {
		log.Fatal(err)
	}
	cfg := prof.GenConfig
	cfg.N = 10000
	fmt.Printf("generating %d x %d dataset (DEEP analog)...\n", cfg.N, cfg.Dim)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building IVF index...")
	idx, err := resinfer.New(ds.Data, resinfer.IVF, &resinfer.Options{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Enable(resinfer.DDCRes, nil); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-8s %-9s %-9s %-7s %-11s\n", "nprobe", "mode", "recall@10", "QPS", "pruned-rate")
	for _, nprobe := range []int{4, 8, 16, 32} {
		for _, mode := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes} {
			results := make([][]int, len(ds.Queries))
			var prunedRate float64
			start := time.Now()
			for qi, q := range ds.Queries {
				ns, st, err := idx.SearchInto(nil, q, 10, mode, nprobe)
				if err != nil {
					log.Fatal(err)
				}
				prunedRate += st.PrunedRate
				for _, n := range ns {
					results[qi] = append(results[qi], n.ID)
				}
			}
			elapsed := time.Since(start)
			fmt.Printf("%-8d %-9s %-9.4f %-7.0f %-11.3f\n",
				nprobe, mode,
				dataset.Recall(results, gt, 10),
				float64(len(ds.Queries))/elapsed.Seconds(),
				prunedRate/float64(len(ds.Queries)))
		}
	}
}

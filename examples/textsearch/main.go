// Textsearch demonstrates the paper's method-selection guidance (Exp-1):
// on flat-variance text embeddings (GLOVE-like, where a 32-dim PCA keeps
// only ~18% of the variance) the quantization-based DDCopq outperforms the
// PCA-based DDCres, while on skewed image-like data the ranking flips.
// The variance-explained statistic printed first is the selection signal.
package main

import (
	"fmt"
	"log"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
	"resinfer/internal/pca"
)

func main() {
	prof, err := dataset.ProfileByName("glove")
	if err != nil {
		log.Fatal(err)
	}
	cfg := prof.GenConfig
	cfg.N = 8000
	cfg.TrainQueries = 400
	fmt.Printf("generating %d x %d text-embedding analog (GLOVE-like)...\n", cfg.N, cfg.Dim)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The selection signal the paper recommends: variance preserved by a
	// 32-dim PCA. Low values favor DDCopq; high values favor DDCres.
	model, err := pca.Train(pca.Config{SampleSize: 4000, Seed: 1}, ds.Matrix())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("variance preserved by 32-dim PCA: %.0f%% (paper: GLOVE 18%%, GIST 67%%)\n",
		100*model.VarianceExplained(32))

	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := resinfer.New(ds.Data, resinfer.HNSW, &resinfer.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training DDCres and DDCopq comparators...")
	if err := idx.Enable(resinfer.DDCRes, nil); err != nil {
		log.Fatal(err)
	}
	if err := idx.EnableWithTraining(resinfer.DDCOPQ, ds.Train, nil); err != nil {
		log.Fatal(err)
	}

	for _, mode := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes, resinfer.DDCOPQ} {
		results := make([][]int, len(ds.Queries))
		start := time.Now()
		for qi, q := range ds.Queries {
			ns, err := idx.Search(q, 10, mode, 60)
			if err != nil {
				log.Fatal(err)
			}
			for _, n := range ns {
				results[qi] = append(results[qi], n.ID)
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-10s recall@10=%.4f QPS=%.0f\n", mode,
			dataset.Recall(results, gt, 10),
			float64(len(ds.Queries))/elapsed.Seconds())
	}
	fmt.Println("\non flat-variance data, expect ddc-opq to lead ddc-res (Exp-1's crossover)")
}

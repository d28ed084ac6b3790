// Command annsearch builds an index over a dataset analog (or fvecs files)
// and reports recall, QPS and distance-computation statistics for a chosen
// distance mode — a quick way to try the library end to end.
//
// Usage:
//
//	annsearch -profile deep -index hnsw -mode ddc-res -k 10 -budget 80
//	annsearch -base b.fvecs -queries q.fvecs -index ivf -mode exact -budget 16
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
)

func main() {
	var (
		profile = flag.String("profile", "", "dataset profile name (alternative to -base/-queries)")
		base    = flag.String("base", "", "base vectors (fvecs)")
		queries = flag.String("queries", "", "query vectors (fvecs)")
		train   = flag.String("train", "", "training queries (fvecs; needed for learned modes)")
		kind    = flag.String("index", "hnsw", "index kind: hnsw | ivf")
		mode    = flag.String("mode", "exact", "distance mode: exact | adsampling | ddc-res | ddc-pca | ddc-opq")
		k       = flag.Int("k", 10, "neighbors to retrieve")
		budget  = flag.Int("budget", 80, "search budget: ef (hnsw) or nprobe (ivf)")
		seed    = flag.Int64("seed", 1, "construction seed")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "annsearch:", err)
		os.Exit(1)
	}

	var data, qs, tr [][]float32
	switch {
	case *profile != "":
		prof, err := dataset.ProfileByName(*profile)
		if err != nil {
			fail(err)
		}
		ds, err := dataset.Generate(prof.GenConfig)
		if err != nil {
			fail(err)
		}
		data, qs, tr = ds.Data, ds.Queries, ds.Train
	case *base != "" && *queries != "":
		var err error
		if data, err = dataset.LoadFvecsFile(*base); err != nil {
			fail(err)
		}
		if qs, err = dataset.LoadFvecsFile(*queries); err != nil {
			fail(err)
		}
		if *train != "" {
			if tr, err = dataset.LoadFvecsFile(*train); err != nil {
				fail(err)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: annsearch -profile <name> | -base <fvecs> -queries <fvecs> [-train <fvecs>]")
		os.Exit(2)
	}

	fmt.Printf("building %s index over %d x %d vectors (simd: %s)...\n",
		*kind, len(data), len(data[0]), resinfer.SIMDLevel())
	start := time.Now()
	ix, err := resinfer.New(data, resinfer.IndexKind(*kind), &resinfer.Options{Seed: *seed})
	if err != nil {
		fail(err)
	}
	fmt.Printf("  built in %.1fs\n", time.Since(start).Seconds())

	m := resinfer.Mode(*mode)
	if m != resinfer.Exact {
		fmt.Printf("training %s comparator...\n", m)
		start = time.Now()
		if err := ix.EnableWithTraining(m, tr, nil); err != nil {
			fail(err)
		}
		fmt.Printf("  trained in %.1fs\n", time.Since(start).Seconds())
	}

	fmt.Printf("computing exact ground truth for %d queries...\n", len(qs))
	gt, err := dataset.BruteForceKNN(data, qs, *k, 0)
	if err != nil {
		fail(err)
	}

	results := make([][]int, len(qs))
	var comparisons, pruned int64
	start = time.Now()
	for qi, q := range qs {
		ns, st, err := ix.SearchInto(nil, q, *k, m, *budget)
		if err != nil {
			fail(err)
		}
		comparisons += st.Comparisons
		pruned += st.Pruned
		for _, n := range ns {
			results[qi] = append(results[qi], n.ID)
		}
	}
	elapsed := time.Since(start)

	recall := dataset.Recall(results, gt, *k)
	fmt.Printf("\nindex=%s mode=%s k=%d budget=%d\n", *kind, m, *k, *budget)
	fmt.Printf("recall@%d = %.4f\n", *k, recall)
	fmt.Printf("QPS      = %.0f (%d queries in %v)\n",
		float64(len(qs))/elapsed.Seconds(), len(qs), elapsed)
	if comparisons > 0 {
		fmt.Printf("pruned   = %d / %d comparisons (%.1f%%)\n",
			pruned, comparisons, 100*float64(pruned)/float64(comparisons))
	}
}

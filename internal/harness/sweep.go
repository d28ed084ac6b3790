package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/heap"
	"resinfer/internal/hnsw"
	"resinfer/internal/ivf"
)

// Point is one measurement on a time–accuracy curve: the swept parameter
// (ef for HNSW, nprobe for IVF), the achieved recall@K, queries per
// second, and the aggregated DCO work counters.
type Point struct {
	Param  int
	Recall float64
	QPS    float64
	Stats  core.Stats
}

// walkFunc runs one index traversal at one swept parameter for the query ev
// was Reset to, appending the hits to dst.
type walkFunc func(ev core.QueryEvaluator, q []float32, param int, dst []heap.Item) ([]heap.Item, error)

func hnswWalk(idx *hnsw.Index, k, size int) walkFunc {
	return func(ev core.QueryEvaluator, _ []float32, ef int, dst []heap.Item) ([]heap.Item, error) {
		return idx.SearchEval(ev, k, ef, size, dst)
	}
}

func ivfWalk(idx *ivf.Index, k, size int) walkFunc {
	return func(ev core.QueryEvaluator, q []float32, nprobe int, dst []heap.Item) ([]heap.Item, error) {
		return idx.SearchEval(ev, q, k, nprobe, size, dst)
	}
}

// SweepHNSW measures the QPS–recall curve of the graph index under dco for
// each beam width in efs.
func SweepHNSW(idx *hnsw.Index, dco core.DCO, queries [][]float32, gt [][]int, k int, efs []int) ([]Point, error) {
	return sweep(dco, queries, gt, k, efs, hnswWalk(idx, k, dco.Size()))
}

// SweepIVF measures the QPS–recall curve of the inverted-file index under
// dco for each probe count in nprobes.
func SweepIVF(idx *ivf.Index, dco core.DCO, queries [][]float32, gt [][]int, k int, nprobes []int) ([]Point, error) {
	return sweep(dco, queries, gt, k, nprobes, ivfWalk(idx, k, dco.Size()))
}

// sweep times every query at every swept parameter the way the serving path
// (resinfer.Index.walk) runs one: a single evaluator for the whole curve,
// Reset per query, hits appended to a reused slice. A comparator's
// per-query scratch (rotated query, σ table, lookup tables) is therefore
// allocated once per curve, not once per query, for every method alike.
func sweep(dco core.DCO, queries [][]float32, gt [][]int, k int, params []int, walk walkFunc) ([]Point, error) {
	ev := dco.NewEvaluator()
	var items []heap.Item
	points := make([]Point, 0, len(params))
	for _, param := range params {
		results := make([][]int, len(queries))
		var agg core.Stats
		start := time.Now()
		for qi, q := range queries {
			if err := ev.Reset(q); err != nil {
				return nil, err
			}
			var err error
			if items, err = walk(ev, q, param, items[:0]); err != nil {
				return nil, err
			}
			agg.Add(*ev.Stats())
			ids := make([]int, len(items))
			for i, it := range items {
				ids[i] = it.ID
			}
			results[qi] = ids
		}
		elapsed := time.Since(start)
		points = append(points, Point{
			Param:  param,
			Recall: dataset.Recall(results, gt, k),
			QPS:    float64(len(queries)) / elapsed.Seconds(),
			Stats:  agg,
		})
	}
	return points, nil
}

// Curve is a labeled series of points (one line in a paper figure).
type Curve struct {
	Label  string
	Points []Point
}

// RenderCurves prints curves as an aligned text table: one block per
// curve, one row per swept parameter.
func RenderCurves(w io.Writer, title, paramName string, dim int, curves []Curve) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "method\t%s\trecall\tQPS\tscan-rate\tpruned-rate\n", paramName)
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.0f\t%.3f\t%.3f\n",
				c.Label, p.Param, p.Recall, p.QPS,
				p.Stats.ScanRate(dim), p.Stats.PrunedRate())
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// QPSAtRecall interpolates a curve's QPS at a target recall, the paper's
// standard way of comparing methods ("2x speedup at 0.95 recall"). It
// returns 0 when the curve never reaches the target.
func QPSAtRecall(points []Point, target float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.Recall >= target && p.QPS > best {
			best = p.QPS
		}
	}
	return best
}

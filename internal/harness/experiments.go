package harness

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/heap"
	"resinfer/internal/hnsw"
	"resinfer/internal/quant"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Experiment reproduces one paper artifact (table or figure).
type Experiment struct {
	ID       string
	PaperRef string
	Title    string
	Run      func(w io.Writer) error
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Fig. 1", "Estimation-error distribution: PCA vs random projection", RunFig1},
		{"fig2", "Fig. 2", "Empirical analysis of the mσ error bound", RunFig2},
		{"exp1", "Fig. 5", "Time-accuracy tradeoff across methods, indexes, datasets", RunExp1},
		{"exp2", "Fig. 6", "Varying the target recall r", RunExp2},
		{"exp3", "Fig. 7", "Pre-processing time and space", RunExp3},
		{"exp4", "Fig. 8", "Comparison with FINGER", RunExp4},
		{"exp5", "Fig. 9", "Scalability of pre-processing", RunExp5},
		{"exp6", "Fig. 10", "Scan rate and pruned rate", RunExp6},
		{"exp7", "Table III", "Approximation accuracy under linear scan", RunExp7},
		{"exp8", "§VII Exp-8", "Ant Group 512-dim image-search scenario", RunExp8},
		{"expA2", "TR Exp-A.2", "Out-of-distribution query sensitivity", RunExpA2},
		{"expA3", "TR Exp-A.3", "OOD mitigation by retraining", RunExpA3},
		{"abl1", "§IV (ablation)", "DDCres: incremental step Δd", RunAblationDeltaD},
		{"abl2", "§IV-C (ablation)", "DDCres: error-bound multiplier m", RunAblationMultiplier},
		{"abl3", "§V-B (ablation)", "DDCopq: residual-norm feature", RunAblationOPQFeature},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Parameter sweeps matching the paper's figure axes (scaled to our sizes).
var (
	efsK20     = []int{20, 40, 80, 160, 320}
	efsK100    = []int{100, 150, 250, 400}
	nprobesAll = []int{2, 4, 8, 16, 32, 64}
)

// exp1HNSWDatasets and exp1IVFDatasets mirror Fig. 5's panel layout: six
// datasets on both indexes, the two large analogs on HNSW only.
var (
	exp1BothDatasets = []string{"msong", "gist", "deep", "tiny", "glove", "word2vec"}
	exp1HNSWOnly     = []string{"tiny80", "sift"}
)

// RunExp1 reproduces Fig. 5: QPS–recall curves for HNSW and IVF variants.
func RunExp1(w io.Writer) error {
	for _, name := range exp1BothDatasets {
		if err := exp1Panel(w, name, true, true); err != nil {
			return err
		}
	}
	for _, name := range exp1HNSWOnly {
		if err := exp1Panel(w, name, true, false); err != nil {
			return err
		}
	}
	return nil
}

func exp1Panel(w io.Writer, name string, doHNSW, doIVF bool) error {
	a, err := Get(name)
	if err != nil {
		return err
	}
	ds, err := a.Dataset()
	if err != nil {
		return err
	}
	for _, k := range []int{20, 100} {
		gt, err := a.GroundTruth(k)
		if err != nil {
			return err
		}
		efs := efsK20
		if k == 100 {
			efs = efsK100
		}
		if doHNSW {
			idx, err := a.HNSW()
			if err != nil {
				return err
			}
			var curves []Curve
			for _, mode := range AllModes {
				dco, err := a.DCO(mode)
				if err != nil {
					return err
				}
				pts, err := SweepHNSW(idx, dco, ds.Queries, gt, k, efs)
				if err != nil {
					return err
				}
				curves = append(curves, Curve{Label: "hnsw-" + mode, Points: pts})
			}
			RenderCurves(w, fmt.Sprintf("%s (HNSW) recall@%d", name, k), "ef", ds.Dim, curves)
		}
		if doIVF {
			idx, err := a.IVF()
			if err != nil {
				return err
			}
			var curves []Curve
			for _, mode := range AllModes {
				dco, err := a.DCO(mode)
				if err != nil {
					return err
				}
				pts, err := SweepIVF(idx, dco, ds.Queries, gt, k, nprobesAll)
				if err != nil {
					return err
				}
				curves = append(curves, Curve{Label: "ivf-" + mode, Points: pts})
			}
			RenderCurves(w, fmt.Sprintf("%s (IVF) recall@%d", name, k), "nprobe", ds.Dim, curves)
		}
	}
	return nil
}

// RunExp2 reproduces Fig. 6: the effect of the target recall r used by the
// adaptive boundary adjustment on the HNSW-DDCpca and HNSW-DDCopq curves.
func RunExp2(w io.Writer) error {
	targets := []float64{0.9, 0.95, 0.97, 0.99, 0.995, 0.999}
	for _, name := range []string{"gist", "deep"} {
		a, err := Get(name)
		if err != nil {
			return err
		}
		ds, err := a.Dataset()
		if err != nil {
			return err
		}
		gt, err := a.GroundTruth(20)
		if err != nil {
			return err
		}
		idx, err := a.HNSW()
		if err != nil {
			return err
		}
		// DDCpca with per-target retraining.
		var pcaCurves, opqCurves []Curve
		pcaDCO, err := a.DCO(ModePCA)
		if err != nil {
			return err
		}
		opqDCO, err := a.DCO(ModeOPQ)
		if err != nil {
			return err
		}
		pcad := pcaDCO.(*ddc.PCADCO)
		opqd := opqDCO.(*ddc.OPQDCO)
		for _, r := range targets {
			if err := pcad.Retrain(ds.Train, ddc.PCAConfig{
				Seed: a.Profile.Seed, TargetRecall: r,
				Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
			}); err != nil {
				return err
			}
			pts, err := SweepHNSW(idx, pcad, ds.Queries, gt, 20, efsK20)
			if err != nil {
				return err
			}
			pcaCurves = append(pcaCurves, Curve{Label: fmt.Sprintf("r=%.3f", r), Points: pts})

			if err := opqd.Retrain(ds.Train, ddc.OPQConfig{
				Seed: a.Profile.Seed, TargetRecall: r,
				Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
			}); err != nil {
				return err
			}
			pts, err = SweepHNSW(idx, opqd, ds.Queries, gt, 20, efsK20)
			if err != nil {
				return err
			}
			opqCurves = append(opqCurves, Curve{Label: fmt.Sprintf("r=%.3f", r), Points: pts})
		}
		// Restore the default calibration for later experiments.
		if err := pcad.Retrain(ds.Train, ddc.PCAConfig{
			Seed:    a.Profile.Seed,
			Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
		}); err != nil {
			return err
		}
		if err := opqd.Retrain(ds.Train, ddc.OPQConfig{
			Seed:    a.Profile.Seed,
			Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
		}); err != nil {
			return err
		}
		RenderCurves(w, fmt.Sprintf("%s (HNSW-DDCpca) target-recall sweep, recall@20", name), "ef", ds.Dim, pcaCurves)
		RenderCurves(w, fmt.Sprintf("%s (HNSW-DDCopq) target-recall sweep, recall@20", name), "ef", ds.Dim, opqCurves)
	}
	return nil
}

// RunExp3 reproduces Fig. 7: pre-processing time and space per method,
// next to the index costs of HNSW and IVF.
func RunExp3(w io.Writer) error {
	names := []string{"msong", "gist", "deep", "word2vec", "glove", "tiny"}
	fmt.Fprintln(w, "== Pre-processing time (s) and space (MB) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tcomponent\ttime(s)\tspace(MB)")
	for _, name := range names {
		a, err := Get(name)
		if err != nil {
			return err
		}
		ds, err := a.Dataset()
		if err != nil {
			return err
		}
		baseMB := float64(len(ds.Data)) * float64(ds.Dim) * 4 / (1 << 20)
		hnswIdx, err := a.HNSW()
		if err != nil {
			return err
		}
		ivfIdx, err := a.IVF()
		if err != nil {
			return err
		}
		type row struct {
			comp  string
			secs  float64
			space float64
		}
		rows := []row{
			{"base-data", 0, baseMB},
			// The graph is built by hnsw.Config's default, GOMAXPROCS inserting
			// goroutines, and its time scales with them: say how many.
			{fmt.Sprintf("hnsw-index (%d workers)", runtime.GOMAXPROCS(0)), a.Timing("hnsw").Seconds(), float64(hnswIdx.GraphBytes()) / (1 << 20)},
			{"ivf-index", a.Timing("ivf").Seconds(), float64(ivfIdx.IndexBytes()) / (1 << 20)},
		}
		for _, mode := range []string{ModeADS, ModeRes, ModePCA, ModeOPQ} {
			dco, err := a.DCO(mode)
			if err != nil {
				return err
			}
			rows = append(rows, row{
				comp:  "dco-" + mode,
				secs:  a.Timing(modeTimingKey(mode)).Seconds(),
				space: float64(dco.ExtraBytes()) / (1 << 20),
			})
		}
		fing, err := a.Finger()
		if err != nil {
			return err
		}
		rows = append(rows, row{"finger", a.Timing("finger").Seconds(),
			float64(fing.ExtraBytes()) / (1 << 20)})
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\n", name, r.comp, r.secs, r.space)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func modeTimingKey(mode string) string {
	switch mode {
	case ModeADS:
		return "ads"
	case ModeRes:
		return "res"
	case ModePCA:
		return "pca"
	case ModeOPQ:
		return "opq"
	}
	return mode
}

// RunExp4 reproduces Fig. 8: FINGER vs our methods on GIST and DEEP with
// HNSW.
func RunExp4(w io.Writer) error {
	for _, name := range []string{"gist", "deep"} {
		a, err := Get(name)
		if err != nil {
			return err
		}
		ds, err := a.Dataset()
		if err != nil {
			return err
		}
		idx, err := a.HNSW()
		if err != nil {
			return err
		}
		fing, err := a.Finger()
		if err != nil {
			return err
		}
		for _, k := range []int{20, 100} {
			gt, err := a.GroundTruth(k)
			if err != nil {
				return err
			}
			efs := efsK20
			if k == 100 {
				efs = efsK100
			}
			var curves []Curve
			for _, mode := range []string{ModeExact, ModeADS, ModeOPQ, ModePCA, ModeRes} {
				dco, err := a.DCO(mode)
				if err != nil {
					return err
				}
				pts, err := SweepHNSW(idx, dco, ds.Queries, gt, k, efs)
				if err != nil {
					return err
				}
				curves = append(curves, Curve{Label: "hnsw-" + mode, Points: pts})
			}
			// FINGER runs its own search loop.
			var fpts []Point
			for _, ef := range efs {
				results := make([][]int, len(ds.Queries))
				var agg core.Stats
				start := time.Now()
				for qi, q := range ds.Queries {
					items, st, err := fing.Search(q, k, ef)
					if err != nil {
						return err
					}
					agg.Add(st)
					for _, it := range items {
						results[qi] = append(results[qi], it.ID)
					}
				}
				elapsed := time.Since(start)
				fpts = append(fpts, Point{
					Param:  ef,
					Recall: dataset.Recall(results, gt, k),
					QPS:    float64(len(ds.Queries)) / elapsed.Seconds(),
					Stats:  agg,
				})
			}
			curves = append(curves, Curve{Label: "finger", Points: fpts})
			RenderCurves(w, fmt.Sprintf("%s (HNSW vs FINGER) recall@%d", name, k), "ef", ds.Dim, curves)
		}
	}
	return nil
}

// RunExp5 reproduces Fig. 9: pre-processing time versus dataset size on
// the SIFT analog, sweeping five proportional slices.
func RunExp5(w io.Writer) error {
	a, err := Get("sift")
	if err != nil {
		return err
	}
	ds, err := a.Dataset()
	if err != nil {
		return err
	}
	n := len(ds.Data)
	fmt.Fprintln(w, "== Scalability: pre-processing time (s) vs dataset size (SIFT analog) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\thnsw\tads\tpca-rotate(res)\topq-train\tddc-pca-train\tddc-opq-train")
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		sz := int(float64(n) * frac)
		slice := store.MustFromRows(ds.Data[:sz])
		train := ds.Train
		if len(train) > 400 {
			train = train[:400]
		}

		hnswT := timeIt(func() error {
			_, err := hnsw.Build(slice, hnsw.Config{M: 16, EfConstruction: 200, Seed: 1})
			return err
		})
		adsT := timeIt(func() error {
			_, err := adsampling.New(slice, adsampling.Config{Seed: 1})
			return err
		})
		resT := timeIt(func() error {
			_, err := ddc.NewRes(slice, ddc.ResConfig{Seed: 1, PCASample: 20000})
			return err
		})
		opqT := timeIt(func() error {
			_, err := quant.TrainOPQ(slice, quant.OPQConfig{
				PQ: quant.PQConfig{M: 32, Nbits: 8, Seed: 1}, Iters: 3, TrainSample: 4096, Seed: 1,
			})
			return err
		})
		pcaTrainT := timeIt(func() error {
			_, err := ddc.NewPCA(slice, train, ddc.PCAConfig{
				Seed: 1, Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
			})
			return err
		})
		opqTrainT := timeIt(func() error {
			_, err := ddc.NewOPQ(slice, train, ddc.OPQConfig{
				OPQIters: 3, OPQSample: 4096, Seed: 1,
				Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
			})
			return err
		})
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			sz, hnswT.Seconds(), adsT.Seconds(), resT.Seconds(),
			opqT.Seconds(), pcaTrainT.Seconds(), opqTrainT.Seconds())
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func timeIt(f func() error) time.Duration {
	start := time.Now()
	if err := f(); err != nil {
		return 0
	}
	return time.Since(start)
}

// RunExp6 reproduces Fig. 10: scan rate for the projection-based methods
// and pruned rate for all, versus ef (HNSW) and nprobe (IVF), on GIST and
// DEEP.
func RunExp6(w io.Writer) error {
	for _, name := range []string{"gist", "deep"} {
		a, err := Get(name)
		if err != nil {
			return err
		}
		ds, err := a.Dataset()
		if err != nil {
			return err
		}
		gt, err := a.GroundTruth(20)
		if err != nil {
			return err
		}
		hidx, err := a.HNSW()
		if err != nil {
			return err
		}
		iidx, err := a.IVF()
		if err != nil {
			return err
		}
		var hc, ic []Curve
		for _, mode := range []string{ModeADS, ModePCA, ModeRes, ModeOPQ} {
			dco, err := a.DCO(mode)
			if err != nil {
				return err
			}
			hp, err := SweepHNSW(hidx, dco, ds.Queries, gt, 20, efsK20)
			if err != nil {
				return err
			}
			hc = append(hc, Curve{Label: mode, Points: hp})
			ip, err := SweepIVF(iidx, dco, ds.Queries, gt, 20, nprobesAll)
			if err != nil {
				return err
			}
			ic = append(ic, Curve{Label: mode, Points: ip})
		}
		RenderCurves(w, name+" scan/pruned rates (HNSW)", "ef", ds.Dim, hc)
		RenderCurves(w, name+" scan/pruned rates (IVF)", "nprobe", ds.Dim, ic)
	}
	return nil
}

// RunExp7 reproduces Table III: recall@100 of a pure linear scan using
// 32-dimensional approximations — PCA prefix distance, random-projection
// distance, and DDCres with its correction loop.
func RunExp7(w io.Writer) error {
	const d = 32
	const k = 100
	fmt.Fprintln(w, "== Table III: approximation accuracy (recall@100, 32 dims) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tPCA\tRand\tDDCres")
	for _, name := range []string{"deep", "gist", "tiny", "glove", "word2vec"} {
		a, err := Get(name)
		if err != nil {
			return err
		}
		ds, err := a.Dataset()
		if err != nil {
			return err
		}
		gt, err := a.GroundTruth(k)
		if err != nil {
			return err
		}
		resDCO, err := a.DCO(ModeRes)
		if err != nil {
			return err
		}
		res := resDCO.(*ddc.Res)
		adsDCO, err := a.DCO(ModeADS)
		if err != nil {
			return err
		}

		pcaResults := make([][]int, len(ds.Queries))
		randResults := make([][]int, len(ds.Queries))
		ddcResults := make([][]int, len(ds.Queries))
		for qi, q := range ds.Queries {
			// (a) Top-k by PCA prefix distance at depth d.
			rq, err := res.Model().Project(q)
			if err != nil {
				return err
			}
			pcaResults[qi] = topKByApprox(res.Rotated(), rq, d, k)
			// (b) Top-k by random-projection prefix distance at depth d.
			randResults[qi], err = topKByRandomPrefix(adsDCO.(*adsampling.DCO), q, d, k)
			if err != nil {
				return err
			}
			// (c) DDCres approximate distance: the decomposition
			// C1 − C2 = ‖x‖²+‖q‖²−2⟨x_d,q_d⟩ at depth d. Unlike the plain
			// PCA prefix distance it keeps the full norm information, which
			// is what Table III credits for the gap (largest on GLOVE).
			qNorm := vec.NormSq(rq)
			norms := res.Norms()
			rot := res.Rotated()
			ddcQueue := heap.NewResultQueue(k)
			for id := 0; id < rot.Rows(); id++ {
				approx := norms[id] + qNorm - 2*vec.DotRange(rq, rot.Row(id), 0, d)
				if approx < ddcQueue.Threshold() {
					ddcQueue.Push(id, approx)
				}
			}
			for _, it := range ddcQueue.Sorted() {
				ddcResults[qi] = append(ddcResults[qi], it.ID)
			}
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", name,
			100*dataset.Recall(pcaResults, gt, k),
			100*dataset.Recall(randResults, gt, k),
			100*dataset.Recall(ddcResults, gt, k))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// topKByApprox ranks points by prefix distance over the first d rotated
// coordinates.
func topKByApprox(rotated *store.Matrix, rq []float32, d, k int) []int {
	q := heap.NewResultQueue(k)
	for id := 0; id < rotated.Rows(); id++ {
		dist := vec.L2SqRange(rq, rotated.Row(id), 0, d)
		if dist < q.Threshold() {
			q.Push(id, dist)
		}
	}
	items := q.Sorted()
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}

// RunExp8 reproduces the Ant Group scenario: a 512-dim image-embedding
// analog where HNSW-DDCopq must cut retrieval time without losing recall.
func RunExp8(w io.Writer) error {
	a, err := Get("ant512")
	if err != nil {
		return err
	}
	ds, err := a.Dataset()
	if err != nil {
		return err
	}
	gt, err := a.GroundTruth(20)
	if err != nil {
		return err
	}
	idx, err := a.HNSW()
	if err != nil {
		return err
	}
	exact, err := a.DCO(ModeExact)
	if err != nil {
		return err
	}
	opq, err := a.DCO(ModeOPQ)
	if err != nil {
		return err
	}
	basePts, err := SweepHNSW(idx, exact, ds.Queries, gt, 20, efsK20)
	if err != nil {
		return err
	}
	opqPts, err := SweepHNSW(idx, opq, ds.Queries, gt, 20, efsK20)
	if err != nil {
		return err
	}
	RenderCurves(w, "ant512 (HNSW) recall@20", "ef", ds.Dim, []Curve{
		{Label: "hnsw-exact", Points: basePts},
		{Label: "hnsw-ddc-opq", Points: opqPts},
	})
	const target = 0.95
	baseQPS := QPSAtRecall(basePts, target)
	opqQPS := QPSAtRecall(opqPts, target)
	if baseQPS > 0 && opqQPS > 0 {
		fmt.Fprintf(w, "at recall>=%.2f: exact %.0f QPS, DDCopq %.0f QPS, throughput %+.1f%%, retrieval time %+.1f%%\n\n",
			target, baseQPS, opqQPS, 100*(opqQPS/baseQPS-1), 100*(baseQPS/opqQPS-1))
	} else {
		fmt.Fprintf(w, "target recall %.2f not reached by both methods\n\n", target)
	}
	return nil
}

// topKByRandomPrefix ranks points by prefix distance over the first d
// randomly rotated coordinates (scaling by D/d preserves the order, so the
// raw prefix suffices for ranking).
func topKByRandomPrefix(ads *adsampling.DCO, q []float32, d, k int) ([]int, error) {
	if len(q) != ads.Dim() {
		return nil, fmt.Errorf("harness: query dim %d, want %d", len(q), ads.Dim())
	}
	rq := make([]float32, ads.Dim())
	vec.MatVec(rq, ads.Model().Rotation.Flat(), ads.Dim(), q)
	return topKByApprox(ads.Rotated(), rq, d, k), nil
}

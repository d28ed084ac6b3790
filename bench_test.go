package resinfer_test

// One testing.B benchmark per paper artifact (table/figure), each wrapping
// the corresponding harness experiment. The harness caches datasets,
// indexes and trained comparators process-wide, so the suite pays each
// construction once. Benchmarks run at a reduced dataset scale so the
// whole suite finishes in minutes; `cmd/bench` regenerates the artifacts
// at full profile scale.
//
// Regenerate everything:
//
//	go test -bench=. -benchmem -timeout 60m .
//	go run ./cmd/bench -exp all          # full scale, with output tables

import (
	"io"
	"sync"
	"testing"

	"resinfer/internal/harness"
)

var benchScaleOnce sync.Once

func benchExperiment(b *testing.B, id string) {
	benchScaleOnce.Do(func() {
		if err := harness.SetScale(0.25); err != nil {
			b.Fatal(err)
		}
	})
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFig1ErrorDistribution regenerates Fig. 1: the estimation-error
// distribution of PCA vs random projection.
func BenchmarkFig1ErrorDistribution(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2ErrorBound regenerates Fig. 2: the empirical analysis of
// the m·σ error bound against the 99.7th percentile.
func BenchmarkFig2ErrorBound(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkExp1Performance regenerates Fig. 5: QPS–recall curves for all
// method × index × dataset combinations.
func BenchmarkExp1Performance(b *testing.B) { benchExperiment(b, "exp1") }

// BenchmarkExp2TargetRecall regenerates Fig. 6: the target-recall sweep of
// the learned correction methods.
func BenchmarkExp2TargetRecall(b *testing.B) { benchExperiment(b, "exp2") }

// BenchmarkExp3Preprocessing regenerates Fig. 7: pre-processing time and
// space per method.
func BenchmarkExp3Preprocessing(b *testing.B) { benchExperiment(b, "exp3") }

// BenchmarkExp4Finger regenerates Fig. 8: the FINGER comparison.
func BenchmarkExp4Finger(b *testing.B) { benchExperiment(b, "exp4") }

// BenchmarkExp5Scalability regenerates Fig. 9: pre-processing time versus
// dataset size.
func BenchmarkExp5Scalability(b *testing.B) { benchExperiment(b, "exp5") }

// BenchmarkExp6ScanPruned regenerates Fig. 10: scan rate and pruned rate
// versus the search parameter.
func BenchmarkExp6ScanPruned(b *testing.B) { benchExperiment(b, "exp6") }

// BenchmarkExp7ApproxAccuracy regenerates Table III: linear-scan recall of
// the 32-dim approximations.
func BenchmarkExp7ApproxAccuracy(b *testing.B) { benchExperiment(b, "exp7") }

// BenchmarkExp8AntScenario regenerates Exp-8: the 512-dim image-search
// scenario.
func BenchmarkExp8AntScenario(b *testing.B) { benchExperiment(b, "exp8") }

// BenchmarkExpA2OOD regenerates technical-report Exp-A.2: OOD query
// sensitivity.
func BenchmarkExpA2OOD(b *testing.B) { benchExperiment(b, "expA2") }

// BenchmarkExpA3OODRetrain regenerates technical-report Exp-A.3: OOD
// mitigation by retraining.
func BenchmarkExpA3OODRetrain(b *testing.B) { benchExperiment(b, "expA3") }

// BenchmarkAblationDeltaD sweeps DDCres's incremental step Δd.
func BenchmarkAblationDeltaD(b *testing.B) { benchExperiment(b, "abl1") }

// BenchmarkAblationMultiplier sweeps DDCres's error-bound multiplier m.
func BenchmarkAblationMultiplier(b *testing.B) { benchExperiment(b, "abl2") }

// BenchmarkAblationOPQFeatures ablates DDCopq's residual-norm feature.
func BenchmarkAblationOPQFeatures(b *testing.B) { benchExperiment(b, "abl3") }

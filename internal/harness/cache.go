// Package harness drives the reproduction of every table and figure in the
// paper's evaluation (§VII) plus the technical-report OOD experiments and
// the ablations (abl1–abl3). It owns a process-wide cache of expensive
// artifacts (datasets, ground truth, indexes, trained DCOs) so that
// experiments sharing a dataset pay for construction once, and it
// records construction wall-times and sizes for the preprocessing
// experiments (Exp-3, Exp-5).
package harness

import (
	"fmt"
	"sync"
	"time"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/finger"
	"resinfer/internal/hnsw"
	"resinfer/internal/ivf"
)

// Artifacts lazily builds and caches everything derived from one dataset
// profile. All getters are safe for concurrent use.
type Artifacts struct {
	Profile dataset.Profile

	mu      sync.Mutex
	ds      *dataset.Dataset
	gt      map[int][][]int
	hnswIdx *hnsw.Index
	ivfIdx  *ivf.Index
	exact   *core.Exact
	ads     *adsampling.DCO
	res     *ddc.Res
	pcadco  *ddc.PCADCO
	opqdco  *ddc.OPQDCO
	fing    *finger.Finger
	timings map[string]time.Duration
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Artifacts{}
	scale   = 1.0
)

// SetScale shrinks every profile fetched through Get by the given factor
// (applied to N, query counts and training queries, with sane floors).
// The benchmark suite uses a reduced scale so `go test -bench` finishes
// quickly; cmd/bench defaults to 1.0. Call before the first Get. A factor
// outside (0, 1] is an error and leaves the scale unchanged.
func SetScale(s float64) error {
	if !(s > 0 && s <= 1) {
		return fmt.Errorf("harness: scale %v outside (0, 1]", s)
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	scale = s
	return nil
}

func scaled(n, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}

// Get returns the (cached) artifact set for a named dataset profile.
func Get(name string) (*Artifacts, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if a, ok := cache[name]; ok {
		return a, nil
	}
	prof, err := dataset.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	prof.N = scaled(prof.N, 2000)
	prof.Queries = scaled(prof.Queries, 40)
	prof.TrainQueries = scaled(prof.TrainQueries, 200)
	a := &Artifacts{
		Profile: prof,
		gt:      map[int][][]int{},
		timings: map[string]time.Duration{},
	}
	cache[name] = a
	return a, nil
}

// Reset drops all cached artifacts (used by tests).
func Reset() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = map[string]*Artifacts{}
}

func (a *Artifacts) timed(key string, build func() error) error {
	start := time.Now()
	if err := build(); err != nil {
		return err
	}
	a.timings[key] = time.Since(start)
	return nil
}

// Timing returns the recorded build duration for a component key
// ("dataset", "hnsw", "ivf", "ads", "res", "pca", "opq", "finger"); zero
// when the component has not been built.
func (a *Artifacts) Timing(key string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.timings[key]
}

// Dataset returns the generated dataset.
func (a *Artifacts) Dataset() (*dataset.Dataset, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureDataset(); err != nil {
		return nil, err
	}
	return a.ds, nil
}

func (a *Artifacts) ensureDataset() error {
	if a.ds != nil {
		return nil
	}
	return a.timed("dataset", func() error {
		ds, err := dataset.Generate(a.Profile.GenConfig)
		if err != nil {
			return err
		}
		a.ds = ds
		return nil
	})
}

// GroundTruth returns exact top-k ids for the evaluation queries.
func (a *Artifacts) GroundTruth(k int) ([][]int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if gt, ok := a.gt[k]; ok {
		return gt, nil
	}
	if err := a.ensureDataset(); err != nil {
		return nil, err
	}
	gt, err := dataset.BruteForceKNN(a.ds.Data, a.ds.Queries, k, 0)
	if err != nil {
		return nil, err
	}
	a.gt[k] = gt
	return gt, nil
}

// HNSW returns the built graph index (M=16 as in the paper; a reduced
// efConstruction=200 keeps the laptop-scale suite fast).
func (a *Artifacts) HNSW() (*hnsw.Index, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.hnswIdx != nil {
		return a.hnswIdx, nil
	}
	if err := a.ensureDataset(); err != nil {
		return nil, err
	}
	err := a.timed("hnsw", func() error {
		idx, err := hnsw.Build(a.ds.Matrix(), hnsw.Config{M: 16, EfConstruction: 200, Seed: a.Profile.Seed})
		if err != nil {
			return err
		}
		a.hnswIdx = idx
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.hnswIdx, nil
}

// IVF returns the built inverted-file index (NList defaults to ≈√n).
func (a *Artifacts) IVF() (*ivf.Index, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ivfIdx != nil {
		return a.ivfIdx, nil
	}
	if err := a.ensureDataset(); err != nil {
		return nil, err
	}
	err := a.timed("ivf", func() error {
		idx, err := ivf.Build(a.ds.Matrix(), ivf.Config{Seed: a.Profile.Seed})
		if err != nil {
			return err
		}
		a.ivfIdx = idx
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.ivfIdx, nil
}

// Mode names accepted by DCO.
const (
	ModeExact = "exact"
	ModeADS   = "ads"
	ModeRes   = "res"
	ModePCA   = "pca"
	ModeOPQ   = "opq"
)

// AllModes lists the five distance computation methods of Exp-1, in the
// paper's presentation order.
var AllModes = []string{ModeExact, ModeADS, ModeOPQ, ModePCA, ModeRes}

// DCO returns (building if necessary) the comparator for the given mode.
func (a *Artifacts) DCO(mode string) (core.DCO, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureDataset(); err != nil {
		return nil, err
	}
	switch mode {
	case ModeExact:
		if a.exact == nil {
			e, err := core.NewExact(a.ds.Matrix())
			if err != nil {
				return nil, err
			}
			a.exact = e
		}
		return a.exact, nil
	case ModeADS:
		if a.ads == nil {
			err := a.timed("ads", func() error {
				d, err := adsampling.New(a.ds.Matrix(), adsampling.Config{Seed: a.Profile.Seed, DeltaD: 32})
				if err != nil {
					return err
				}
				a.ads = d
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		return a.ads, nil
	case ModeRes:
		if a.res == nil {
			err := a.timed("res", func() error {
				d, err := ddc.NewRes(a.ds.Matrix(), ddc.ResConfig{
					Seed: a.Profile.Seed, InitD: 32, DeltaD: 32, Multiplier: 3,
				})
				if err != nil {
					return err
				}
				a.res = d
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		return a.res, nil
	case ModePCA:
		if a.pcadco == nil {
			err := a.timed("pca", func() error {
				d, err := ddc.NewPCA(a.ds.Matrix(), a.ds.Train, ddc.PCAConfig{Seed: a.Profile.Seed})
				if err != nil {
					return err
				}
				a.pcadco = d
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		return a.pcadco, nil
	case ModeOPQ:
		if a.opqdco == nil {
			err := a.timed("opq", func() error {
				d, err := ddc.NewOPQ(a.ds.Matrix(), a.ds.Train, ddc.OPQConfig{
					OPQIters:  3,
					OPQSample: 4096,
					Seed:      a.Profile.Seed,
				})
				if err != nil {
					return err
				}
				a.opqdco = d
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		return a.opqdco, nil
	}
	return nil, fmt.Errorf("harness: unknown DCO mode %q", mode)
}

// Finger returns the FINGER-accelerated index over the HNSW graph.
func (a *Artifacts) Finger() (*finger.Finger, error) {
	if _, err := a.HNSW(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fing != nil {
		return a.fing, nil
	}
	err := a.timed("finger", func() error {
		f, err := finger.Build(a.hnswIdx, a.ds.Matrix(), finger.Config{Seed: a.Profile.Seed, ErrorFactor: 1.1})
		if err != nil {
			return err
		}
		a.fing = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.fing, nil
}

package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// maxFailShare is the share of failed operations above which a run
// reports no timings at all: latencies of a program that answers wrongly
// are not worth comparing.
const maxFailShare = 0.01

// result is one run of one workload: what the driver reads from the last
// line of standard output, plus the context a person needs to trust it.
type result struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	Samples map[string]int     `json:"samples"`      // operations behind each timing
	PhasesS map[string]float64 `json:"phase_wall_s"` // wall time of set-up, warm-up, measured, traced …
	Errors  []string           `json:"errors,omitempty"`
	Config  params             `json:"config"`
	Seed    int64              `json:"seed"`
	Machine fingerprint        `json:"machine"`

	spans map[string][]span // of a traced run, by rung
}

func newResult(e *env, w workloadSpec, traced bool) *result {
	return &result{
		Workload: w.Name, Traced: traced, Metrics: metricSet{},
		Samples: map[string]int{}, PhasesS: map[string]float64{}, spans: map[string][]span{},
		Config: e.p, Seed: e.seed, Machine: machine(),
	}
}

// count tallies a phase's operations into attempted and failed, keeping
// the first few error texts.
func (r *result) count(samples []sample, from time.Time) {
	for _, s := range samples {
		if s.due.Before(from) {
			continue
		}
		r.Attempted++
		if s.err != nil {
			r.fail(s.err)
		}
	}
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// tooManyFailures reports a run in which more than maxFailShare of the
// operations failed.
func (r *result) tooManyFailures() error {
	if float64(r.Failed) <= maxFailShare*float64(r.Attempted) {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed, first: %s", r.Failed, r.Attempted, r.Errors[0])
}

// liveHeapMiB forces a collection and returns what survives it.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd is the untraced run: set the workload up (several times,
// for a steady setup_s), then measure it.
func runEndToEnd(e *env, w workloadSpec, dur time.Duration) (res *result, err error) {
	res = newResult(e, w, false)
	var fx fixture
	var setups []float64
	for i := 0; i < e.p.SetupRepeats; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, err
			}
			fx = nil
			runtime.GC()
		}
		t0 := time.Now()
		if fx, err = setupWorkload(e, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, fx.close()) }()
	sort.Float64s(setups)
	res.Metrics.put("setup_s", median(setups), "s")
	res.PhasesS["setup_total"] = mean(setups) * float64(len(setups))
	res.Metrics.put("heap_mb", liveHeapMiB(), "MiB")
	return res, measure(e, w, fx, dur, res)
}

// measure warms the fixture, drives it for dur, checks what it answered
// and fills in the timings — unless the answers were wrong, in which
// case it returns an error and no timings.
func measure(e *env, w workloadSpec, fx fixture, dur time.Duration, res *result) error {
	p := e.p
	warm := p.warmup(w)
	ph := fx.drive(warm, dur, nil)
	res.PhasesS["warmup"] = warm.Seconds()
	measured := ph.end.Sub(ph.from).Seconds()
	res.PhasesS["measured"] = measured
	res.count(ph.searches, ph.from)
	res.count(ph.mutations, ph.from)

	t0 := time.Now()
	recall, err := fx.recall()
	if err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("recall pass: %w", err))
	}
	res.PhasesS["recall_pass"] = time.Since(t0).Seconds()

	lat := sortedCopy(millis(ph.searches, ph.from))
	res.Samples["search"] = len(lat)
	res.Samples["mutation"] = len(millis(ph.mutations, ph.from))
	floor := p.RecallFloorLib
	if w.Kind != "lib" {
		floor = p.RecallFloorServe
	}
	if err := res.tooManyFailures(); err != nil {
		return err
	}
	switch {
	case recall < floor:
		return fmt.Errorf("recall@%d %.4f is below the floor %.2f", p.K, recall, floor)
	case len(lat) == 0:
		return errors.New("no search completed in the measured phase")
	}
	res.Metrics.put("qps", float64(len(lat))/measured, "1/s")
	res.Metrics.put("p50_ms", percentile(lat, 50), "ms")
	res.Metrics.put("recall", recall, "ratio")
	res.Correct = res.Failed == 0
	return nil
}

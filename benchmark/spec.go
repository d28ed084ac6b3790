package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"resinfer"
)

// params sizes one benchmark run. Every workload draws its data from
// the same profile so the layers of the traced run stack at one n and d.
type params struct {
	N       int     // base vectors
	Dim     int     // dimensionality
	Queries int     // distinct queries, cycled in seed-shuffled order
	K       int     // neighbours per search
	VE32    float64 // share of variance in the first 32 PCA dimensions

	M, EfConstruction int // HNSW build
	EfLib, EfServe    int // search beam: single index, 4-shard index
	Shards            int

	ServeRate        float64 // open-loop HTTP requests per second
	ServeConns       int     // keep-alive connections carrying them
	MutateRate       float64 // open-loop mutations per second
	CompactThreshold int     // memtable rows per shard that trigger a compaction
	WALSync          time.Duration

	Warmup       time.Duration
	WarmupMixed  time.Duration // see warmup
	SetupRepeats int           // set-ups per untraced run; setup_s is their median

	// Traced run: how long the rungs that are not the named workload's
	// own run under tracing.
	ServeRung, MixedRung time.Duration
	KernelCalls          int // calls per kernel micro-measurement

	RecallFloorLib, RecallFloorServe float64
}

// fullParams is the gated size. n is the largest at which three set-ups,
// a warm-up and a ten-second measured phase fit the per-run share of the
// driver's time cap (see README, "Sizing").
func fullParams() params {
	return params{
		N: 4000, Dim: 420, Queries: 1000, K: 10, VE32: 0.60,
		M: 16, EfConstruction: 200, EfLib: 200, EfServe: 80, Shards: 4,
		ServeRate: 200, ServeConns: 2, MutateRate: 100, CompactThreshold: 96,
		WALSync: 10 * time.Millisecond,
		Warmup:  time.Second, WarmupMixed: 5 * time.Second, SetupRepeats: 3,
		ServeRung: 2 * time.Second, MixedRung: 6500 * time.Millisecond,
		KernelCalls:    200_000,
		RecallFloorLib: 0.98, RecallFloorServe: 0.99,
	}
}

// warmup is how long a workload's traffic runs before its measured
// phase. mixed-ingest's is longer: its memtables reach their compaction
// threshold after four to five seconds, and until then searches run
// beside no rebuild, which is not its steady state.
func (p params) warmup(w workloadSpec) time.Duration {
	if w.Kind == "mixed" {
		return p.WarmupMixed
	}
	return p.Warmup
}

// smokeParams is the size the package tests run at: small enough that
// all four workloads, traced and untraced, finish in seconds.
func smokeParams() params {
	p := fullParams()
	p.N, p.Dim, p.Queries = 1200, 96, 200
	p.Warmup, p.WarmupMixed, p.SetupRepeats = 100*time.Millisecond, 100*time.Millisecond, 1
	p.CompactThreshold = 16
	p.ServeRung, p.MixedRung = 500*time.Millisecond, time.Second
	p.KernelCalls = 2000
	return p
}

// workloadSpec names one workload and says what runs: the comparator
// mode and the kind of fixture. Why each exists is recorded next to its
// name in BENCHMARK.json.
type workloadSpec struct {
	Name string
	Mode resinfer.Mode
	Kind string // "lib", "serve" or "mixed"
}

var workloads = []workloadSpec{
	{"lib-exact", resinfer.Exact, "lib"},
	{"lib-ddcres", resinfer.DDCRes, "lib"},
	{"serve-ddcres", resinfer.DDCRes, "serve"},
	{"mixed-ingest", resinfer.DDCRes, "mixed"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is present on end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json, at the root of the
// repository, that the benchmark reads: the one place workload and
// metric names, units, directions and bounds are fixed.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &bf, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) put(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

package server

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resinfer"
	"resinfer/internal/obs"
	"resinfer/internal/quality"
)

// metrics is the server's request-path instrumentation. Counters and
// histograms live in an obs.Registry so one set of atomics backs both
// the JSON document at /stats and the Prometheus exposition at
// /metrics; every update on the request path is lock-free.
type metrics struct {
	start   time.Time
	reg     *obs.Registry
	walSync string // WAL fsync policy label for build_info ("none" when no WAL)

	requests       *obs.Counter // HTTP requests across all POST endpoints
	queries        *obs.Counter // individual queries answered
	errors         *obs.Counter // requests or queries that failed
	batches        *obs.Counter // SearchBatch executions by the micro-batcher
	batchedQueries *obs.Counter // queries that went through the micro-batcher
	comparisons    *obs.Counter // DCO threshold comparisons (visited candidates)
	pruned         *obs.Counter // candidates discarded from approximate distances
	upserts        *obs.Counter // vectors accepted via POST /upsert
	deletes        *obs.Counter // rows removed via POST /delete

	shed            *obs.Counter // requests shed at the admission watermark (429)
	timeouts        *obs.Counter // requests that exhausted the request deadline (503)
	partials        *obs.Counter // searches answered with partial shard coverage
	clientCancels   *obs.Counter // requests abandoned by the client (499)
	degradedRejects *obs.Counter // mutations rejected while degraded read-only (503)

	latency    *obs.Histogram // whole-request latency, seconds
	queueWait  *obs.Histogram // admission-queue wait, seconds
	batchSizes *obs.Histogram // queries per micro-batch execution
	queueHist  *obs.Histogram // admission-queue depth sampled at each enqueue
	queueDepth atomic.Int64   // queries currently inside the micro-batcher
}

// latencyBuckets covers 10µs up to ~80s in powers of two — request
// latencies under any plausible load, with interpolation inside each
// bucket keeping quantile error far below the old factor-of-two bound.
func latencyBuckets() []float64 { return obs.ExponentialBuckets(1e-5, 2, 23) }

func (m *metrics) init(reg *obs.Registry) {
	m.start = time.Now()
	m.reg = reg
	m.requests = reg.Counter("resinfer_http_requests_total", "HTTP requests accepted across all endpoints that do work.")
	m.queries = reg.Counter("resinfer_queries_total", "Individual search queries answered successfully.")
	m.errors = reg.Counter("resinfer_errors_total", "Requests or queries that failed.")
	m.batches = reg.Counter("resinfer_batches_total", "SearchBatch executions issued by the micro-batcher.")
	m.batchedQueries = reg.Counter("resinfer_batched_queries_total", "Queries that went through the micro-batching admission queue.")
	m.comparisons = reg.Counter("resinfer_comparisons_total", "Distance-comparator threshold comparisons (candidates visited).")
	m.pruned = reg.Counter("resinfer_pruned_total", "Candidates discarded from approximate distances alone.")
	m.upserts = reg.Counter("resinfer_upserts_total", "Vectors accepted via POST /upsert.")
	m.deletes = reg.Counter("resinfer_deletes_total", "Rows removed via POST /delete.")
	m.shed = reg.Counter("resinfer_shed_total", "Requests shed at the admission-queue watermark (HTTP 429).")
	m.timeouts = reg.Counter("resinfer_timeouts_total", "Requests that exhausted the request deadline (HTTP 503).")
	m.partials = reg.Counter("resinfer_partial_results_total", "Searches answered with partial shard coverage.")
	m.clientCancels = reg.Counter("resinfer_client_cancels_total", "Requests abandoned by the client before completion (HTTP 499).")
	m.degradedRejects = reg.Counter("resinfer_degraded_rejects_total", "Mutations rejected while the index was degraded read-only (HTTP 503).")

	m.latency = reg.Histogram("resinfer_request_duration_seconds",
		"End-to-end request latency across /search and /search/batch.", latencyBuckets())
	m.queueWait = reg.Histogram("resinfer_queue_wait_seconds",
		"Time a query spent in the micro-batching admission queue before executing.",
		obs.ExponentialBuckets(1e-5, 2, 18))
	m.batchSizes = reg.Histogram("resinfer_batch_size",
		"Queries per micro-batch execution.", obs.ExponentialBuckets(1, 2, 10))
	m.queueHist = reg.Histogram("resinfer_queue_depth",
		"Admission-queue depth sampled when each query is enqueued.",
		obs.ExponentialBuckets(1, 2, 12))
	reg.GaugeFunc("resinfer_queue_depth_current",
		"Queries currently waiting in or executing from the admission queue.",
		func() float64 { return float64(m.queueDepth.Load()) })
	reg.GaugeFunc("resinfer_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.Gauge("resinfer_simd_level",
		"Always 1; the level label names the active SIMD dispatch tier.",
		obs.Label{Name: "level", Value: resinfer.SIMDLevel()}).Set(1)
	reg.Gauge("resinfer_build_info",
		"Always 1; labels identify the running build and its runtime configuration.",
		obs.Label{Name: "version", Value: resinfer.Version},
		obs.Label{Name: "goversion", Value: runtime.Version()},
		obs.Label{Name: "simd", Value: resinfer.SIMDLevel()},
		obs.Label{Name: "wal_sync", Value: m.walSync}).Set(1)
}

// StatsSnapshot is the JSON document served at GET /stats. Mutation is
// present only when the served index accepts streaming mutations: it
// carries the ingest counters plus the live segment depths (memtable
// rows, deleted base rows) and compaction/hot-swap timings.
type StatsSnapshot struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Version         string  `json:"version"`
	GoVersion       string  `json:"go_version"`
	SIMDLevel       string  `json:"simd_level"`
	WALSync         string  `json:"wal_sync"`
	Requests        int64   `json:"requests"`
	Queries         int64   `json:"queries"`
	Errors          int64   `json:"errors"`
	Batches         int64   `json:"batches"`
	BatchedQueries  int64   `json:"batched_queries"`
	AvgBatchSize    float64 `json:"avg_batch_size"`
	BatchSizeP50    float64 `json:"batch_size_p50,omitempty"`
	BatchSizeP99    float64 `json:"batch_size_p99,omitempty"`
	QueueDepthP50   float64 `json:"queue_depth_p50,omitempty"`
	QueueDepthP99   float64 `json:"queue_depth_p99,omitempty"`
	QueueWaitP99Ms  float64 `json:"queue_wait_p99_ms,omitempty"`
	Comparisons     int64   `json:"comparisons"`
	Pruned          int64   `json:"pruned"`
	Upserts         int64   `json:"upserts,omitempty"`
	Deletes         int64   `json:"deletes,omitempty"`
	Shed            int64   `json:"shed,omitempty"`
	Timeouts        int64   `json:"timeouts,omitempty"`
	PartialResults  int64   `json:"partial_results,omitempty"`
	ClientCancels   int64   `json:"client_cancels,omitempty"`
	DegradedRejects int64   `json:"degraded_rejects,omitempty"`
	LatencyMeanMs   float64 `json:"latency_mean_ms"`
	LatencyP50Ms    float64 `json:"latency_p50_ms"`
	LatencyP99Ms    float64 `json:"latency_p99_ms"`

	Mutation *resinfer.MutationStats `json:"mutation,omitempty"`
}

func (m *metrics) snapshot() StatsSnapshot {
	s := StatsSnapshot{
		UptimeSeconds:   time.Since(m.start).Seconds(),
		Version:         resinfer.Version,
		GoVersion:       runtime.Version(),
		SIMDLevel:       resinfer.SIMDLevel(),
		WALSync:         m.walSync,
		Requests:        m.requests.Value(),
		Queries:         m.queries.Value(),
		Errors:          m.errors.Value(),
		Batches:         m.batches.Value(),
		BatchedQueries:  m.batchedQueries.Value(),
		Comparisons:     m.comparisons.Value(),
		Pruned:          m.pruned.Value(),
		Upserts:         m.upserts.Value(),
		Deletes:         m.deletes.Value(),
		Shed:            m.shed.Value(),
		Timeouts:        m.timeouts.Value(),
		PartialResults:  m.partials.Value(),
		ClientCancels:   m.clientCancels.Value(),
		DegradedRejects: m.degradedRejects.Value(),
		LatencyMeanMs:   m.latency.Mean() * 1e3,
		LatencyP50Ms:    m.latency.Quantile(0.50) * 1e3,
		LatencyP99Ms:    m.latency.Quantile(0.99) * 1e3,
	}
	if s.Batches > 0 {
		s.AvgBatchSize = float64(s.BatchedQueries) / float64(s.Batches)
		s.BatchSizeP50 = m.batchSizes.Quantile(0.50)
		s.BatchSizeP99 = m.batchSizes.Quantile(0.99)
		s.QueueDepthP50 = m.queueHist.Quantile(0.50)
		s.QueueDepthP99 = m.queueHist.Quantile(0.99)
		s.QueueWaitP99Ms = m.queueWait.Quantile(0.99) * 1e3
	}
	return s
}

// registerIndexMetrics wires the served index's observability into the
// registry: per-shard search timings and work counters for every index;
// compaction build/swap durations, WAL append/fsync latency and
// memtable/deleted-row/segment gauges when it is mutable (mut non-nil).
// qt (may be nil) is the shadow quality tracker; the index exposes a
// single compaction observer slot, so the metrics observer also rolls
// the tracker's since-compaction recall epoch.
// It returns the per-shard search-duration histograms so the server can
// derive the observed shard p95 — the adaptive hedge-delay source.
func registerIndexMetrics(reg *obs.Registry, idx Engine, mut Mutator, qt *quality.Tracker) []*obs.Histogram {
	reg.GaugeFunc("resinfer_index_points", "Rows currently searchable in the index.",
		func() float64 { return float64(idx.Len()) })

	n := idx.NumShards()
	durs := make([]*obs.Histogram, n)
	cmps := make([]*obs.Counter, n)
	prns := make([]*obs.Counter, n)
	for s := 0; s < n; s++ {
		l := obs.Label{Name: "shard", Value: strconv.Itoa(s)}
		durs[s] = reg.Histogram("resinfer_shard_search_duration_seconds",
			"Per-shard search duration within the fan-out.", latencyBuckets(), l)
		cmps[s] = reg.Counter("resinfer_shard_comparisons_total",
			"Threshold comparisons performed by this shard.", l)
		prns[s] = reg.Counter("resinfer_shard_pruned_total",
			"Candidates this shard discarded from approximate distances.", l)
	}
	idx.SetShardObserver(func(shard int, d time.Duration, st resinfer.SearchStats) {
		if shard < 0 || shard >= n {
			return
		}
		durs[shard].ObserveDuration(d)
		cmps[shard].Add(st.Comparisons)
		prns[shard].Add(st.Pruned)
	})
	if mut == nil {
		return durs
	}

	build := reg.Histogram("resinfer_compaction_build_seconds",
		"Off-path rebuild+retrain duration of shard compactions.",
		obs.ExponentialBuckets(1e-3, 2, 18))
	swap := reg.Histogram("resinfer_compaction_swap_seconds",
		"Write-lock hold time of compaction hot swaps.",
		obs.ExponentialBuckets(1e-6, 2, 18))
	swaps := reg.Counter("resinfer_compaction_hotswaps_total",
		"Completed shard compactions (hot swaps).")
	lead := make([]*obs.Gauge, n)
	for s := range lead {
		lead[s] = reg.Gauge("resinfer_rotation_lead_share",
			"Share of variance the shard's inherited ddc-res rotation put in the first DeltaD rotated dimensions at its last compaction (0 before the first, or without ddc-res); it sinks as the data drifts from what the rotation was trained on.",
			obs.Label{Name: "shard", Value: strconv.Itoa(s)})
	}
	mut.SetCompactionObserver(func(ci resinfer.CompactionInfo) {
		build.ObserveDuration(ci.BuildDuration)
		swap.ObserveDuration(ci.SwapDuration)
		swaps.Inc()
		if ci.Shard >= 0 && ci.Shard < n {
			lead[ci.Shard].Set(ci.LeadShare)
		}
		qt.NoteCompaction() // nil-safe
	})

	appendH := reg.Histogram("resinfer_wal_append_seconds",
		"WAL record append latency (serialize + write + inline fsync).",
		obs.ExponentialBuckets(1e-6, 2, 20))
	syncH := reg.Histogram("resinfer_wal_fsync_seconds",
		"WAL fsync latency on the append path (SyncAlways only).",
		obs.ExponentialBuckets(1e-6, 2, 20))
	mut.SetWALObserver(func(appendDur, syncDur time.Duration) {
		appendH.ObserveDuration(appendDur)
		if syncDur > 0 {
			syncH.ObserveDuration(syncDur)
		}
	})

	// One cached MutationStats snapshot feeds every gauge below:
	// MutationStats walks per-shard segment state under locks, so a
	// scrape reading five gauges should not take it five times.
	var (
		mu   sync.Mutex
		ms   resinfer.MutationStats
		last time.Time
	)
	stat := func(get func(resinfer.MutationStats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			if last.IsZero() || time.Since(last) > time.Second {
				ms = mut.MutationStats()
				last = time.Now()
			}
			return get(ms)
		}
	}
	reg.GaugeFunc("resinfer_memtable_rows", "Total memtable depth across shards.",
		stat(func(m resinfer.MutationStats) float64 { return float64(m.MemtableRows) }))
	reg.GaugeFunc("resinfer_tombstones", "Deleted base rows awaiting compaction across shards.",
		stat(func(m resinfer.MutationStats) float64 { return float64(m.Tombstones) }))
	reg.GaugeFunc("resinfer_compactions", "Completed shard compactions.",
		stat(func(m resinfer.MutationStats) float64 { return float64(m.Compactions) }))
	reg.GaugeFunc("resinfer_compact_errors", "Failed compaction attempts.",
		stat(func(m resinfer.MutationStats) float64 { return float64(m.CompactErrors) }))
	reg.GaugeFunc("resinfer_wal_segments", "WAL segment files on disk.",
		stat(func(m resinfer.MutationStats) float64 { return float64(m.WALSegments) }))
	return durs
}

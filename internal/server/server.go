// Package server exposes a resinfer index (sharded or mutable) over an
// HTTP JSON API:
//
//	POST /search         one query        {"query":[...],"k":10,"mode":"exact","budget":100}
//	POST /search/batch   many queries     {"queries":[[...],...],"k":10,"mode":"exact","budget":100}
//	GET  /stats          atomic request / latency / visited-count counters
//	GET  /metrics        the same and more in Prometheus text format
//	GET  /debug/slowlog  ring buffer of requests over the slow threshold
//	GET  /healthz        liveness plus index metadata
//
// Single-query requests pass through one admission queue. A semaphore
// bounds how many searches execute at once; a query that finds a slot
// free runs immediately, and the queries that pile up while every slot is
// busy run together as one SearchBatchCtx (up to a size cap) when the
// next slot frees. Every counter surfaced at /stats and /metrics is
// updated lock-free on the request path.
//
// A client can ask for its own request's pipeline timeline — decode,
// admission-queue wait, shard fan-out (with per-shard timings), k-way
// merge, encode — by sending the X-Resinfer-Trace: 1 header or
// "trace": true in the body; the stages come back inline under "trace".
// Requests slower than Config.SlowLogThreshold land in the slowlog ring
// with the same breakdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"resinfer"
	"resinfer/internal/obs"
	"resinfer/internal/quality"
)

// Engine is the index API the server requires outright:
// *resinfer.ShardedIndex satisfies it, *resinfer.MutableIndex does
// through the ShardedIndex it embeds, and a single *resinfer.Index is
// served as resinfer.SingleShard(ix). Every search runs through the
// deadline-aware SearchBatchCtx, so deadlines, partial results, per-shard
// metrics, quality sampling and hedging apply to whatever is served.
type Engine interface {
	SearchBatchCtx(ctx context.Context, queries [][]float32, k int, mode resinfer.Mode, budget, workers int, traces []*obs.Trace) ([]resinfer.BatchResult, error)
	Len() int
	QueryDim() int
	Modes() []resinfer.Mode
	NumShards() int
	SetShardObserver(func(shard int, d time.Duration, st resinfer.SearchStats))
	GroundTruthSearch(dst []resinfer.Neighbor, shards []int, q []float32, k int) ([]resinfer.Neighbor, []int, int, error)
	SearchShardGlobal(s int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error)
	HedgeStats() (hedged, wins uint64)
}

// Config tunes the server. The zero value serves with exact search,
// k=10, and GOMAXPROCS-wide concurrency.
type Config struct {
	// DefaultK is used when a request omits k (default 10).
	DefaultK int
	// DefaultBudget is used when a request omits budget (default 100).
	DefaultBudget int
	// DefaultMode is used when a request omits mode (default Exact).
	DefaultMode resinfer.Mode
	// MaxConcurrent bounds concurrently executing SearchBatch calls
	// across both endpoints (default GOMAXPROCS). Up to
	// MaxConcurrent×SearchWorkers search goroutines may exist at once;
	// they multiplex over GOMAXPROCS threads, so this bounds queue depth
	// and memory, not CPU.
	MaxConcurrent int
	// BatchMaxSize caps how many queued single queries one execution
	// slot takes at once (default 64).
	BatchMaxSize int
	// SearchWorkers is the worker count handed to SearchBatch
	// (default GOMAXPROCS).
	SearchWorkers int
	// RequestTimeout caps how long one /search request may wait end to
	// end (default 30s). The deadline is enforced inside the fan-out:
	// shards that miss it are abandoned and the response is served
	// partial (see the Partial field of the search response) rather than
	// not at all.
	RequestTimeout time.Duration
	// MaxQueueDepth is the admission-queue watermark: single-query
	// requests arriving while this many queries already sit in (or
	// execute from) the micro-batcher are shed immediately with HTTP 429
	// and a Retry-After hint, instead of queueing into collective
	// timeout. Default 64×BatchMaxSize — deep enough that only sustained
	// overload sheds, not a burst one batch round absorbs; negative
	// disables shedding.
	MaxQueueDepth int
	// RetryAfter is the client back-off hint attached to shed (429)
	// responses (default 1s).
	RetryAfter time.Duration
	// DrainTimeout caps graceful shutdown: how long Serve waits for
	// in-flight requests (and the final WAL sync + checkpoint on a
	// durable index) before forcing connections closed (default 5s).
	DrainTimeout time.Duration
	// SlowLogThreshold sends requests slower than this to the
	// /debug/slowlog ring with per-stage timings (default 250ms).
	// Negative disables the slowlog — and with it the always-on tracing
	// that feeds it.
	SlowLogThreshold time.Duration
	// AccessLog emits one structured line per request to stderr.
	AccessLog bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// QualitySampleRate enables shadow quality sampling: one query in
	// QualitySampleRate is captured and replayed off-path as an exact
	// brute-force scan, feeding the live recall estimators at
	// /debug/quality and /metrics. 0 disables.
	QualitySampleRate int
	// QualityWorkers sizes the ground-truth worker pool (default 1).
	QualityWorkers int
	// SLOLatencyThreshold / SLOLatencyTarget / SLORecallTarget define
	// the objectives the /debug/slo burn tracker evaluates (defaults:
	// 100ms at 0.99, recall 0.95).
	SLOLatencyThreshold time.Duration
	SLOLatencyTarget    float64
	SLORecallTarget     float64

	// ReadyCheck, when set, gates GET /readyz beyond the degraded probe:
	// a non-nil return serves 503 with the error as the reason. A
	// catching-up replica hooks its follower state in here, so load
	// balancers admit it only once its WAL cursor has reached the
	// primary.
	ReadyCheck func() error
	// ReplicaOf marks this server a read-only replica of the named
	// primary: the mutation endpoints are registered as rejections (503
	// naming the primary) instead of being wired to the index, which
	// only the replication stream may mutate.
	ReplicaOf string
}

func (c Config) withDefaults() Config {
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 100
	}
	if c.DefaultMode == "" {
		c.DefaultMode = resinfer.Exact
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.BatchMaxSize <= 0 {
		c.BatchMaxSize = 64
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 64 * c.BatchMaxSize
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.SlowLogThreshold == 0 {
		c.SlowLogThreshold = 250 * time.Millisecond
	}
	return c
}

// Server serves one index. Create with New, expose with Handler or Serve,
// stop with Close.
type Server struct {
	idx      Engine
	mut      Mutator // non-nil when idx is also a mutable index
	cfg      Config
	metrics  metrics
	reg      *obs.Registry
	slowlog  *slowLog // nil when disabled
	batcher  *batcher
	sem      chan struct{}
	mux      *http.ServeMux
	access   *log.Logger      // nil unless Config.AccessLog
	quality  *quality.Tracker // nil unless shadow sampling is enabled
	slo      *quality.SLO
	traceSeq atomic.Uint64    // request trace-ID allocator
	shardDur []*obs.Histogram // per-shard search latency
}

// New wraps idx in a server. The caller must not reconfigure idx (e.g.
// call Enable*) while the server is running; an index that implements
// Mutator (resinfer.MutableIndex) additionally gets the /upsert, /delete
// and /compact endpoints, through which mutation is safe at any time,
// plus the degraded-mode, WAL and replication-source surface.
func New(idx Engine, cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		idx: idx,
		cfg: c,
		reg: obs.NewRegistry(),
		sem: make(chan struct{}, c.MaxConcurrent),
	}
	// The one capability check: it decides which endpoints exist.
	s.mut, _ = idx.(Mutator)
	s.metrics.walSync = "none"
	if s.mut != nil {
		s.metrics.walSync = s.mut.WALSyncPolicy()
	}
	s.metrics.init(s.reg)
	obs.RegisterGoRuntime(s.reg)
	if c.SlowLogThreshold > 0 {
		s.slowlog = newSlowLog(c.SlowLogThreshold)
	}
	if c.AccessLog {
		s.access = log.New(os.Stderr, "", 0)
	}
	s.batcher = newBatcher(idx, c.BatchMaxSize, c.MaxQueueDepth, c.SearchWorkers, s.sem, &s.metrics)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /search/batch", s.handleSearchBatch)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.mut != nil {
		s.mux.HandleFunc("POST /admin/degraded/clear", s.handleDegradedClear)
	}
	if s.slowlog != nil {
		s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	}
	if c.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if c.ReplicaOf != "" {
		// A read-only replica: only the replication stream mutates the
		// index, so external writers get a redirect-shaped 503 instead.
		s.mux.HandleFunc("POST /upsert", s.handleReplicaReject)
		s.mux.HandleFunc("POST /delete", s.handleReplicaReject)
		s.mux.HandleFunc("POST /compact", s.handleReplicaReject)
	} else if s.mut != nil {
		s.mux.HandleFunc("POST /upsert", s.handleUpsert)
		s.mux.HandleFunc("POST /delete", s.handleDelete)
		s.mux.HandleFunc("POST /compact", s.handleCompact)
	}
	s.registerReplication()
	if c.QualitySampleRate > 0 {
		s.quality = quality.NewTracker(idx, quality.Config{
			SampleRate: c.QualitySampleRate,
			Workers:    c.QualityWorkers,
		})
		s.quality.Register(s.reg)
		s.mux.HandleFunc("GET /debug/quality", s.handleQuality)
	}
	s.slo = quality.NewSLO(s.metrics.latency, s.quality, quality.SLOConfig{
		LatencyThreshold: c.SLOLatencyThreshold,
		LatencyTarget:    c.SLOLatencyTarget,
		RecallTarget:     c.SLORecallTarget,
	})
	s.slo.Register(s.reg)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	s.shardDur = registerIndexMetrics(s.reg, idx, s.mut, s.quality)
	return s
}

// ShardLatencyP95 returns the worst per-shard p95 search latency in
// seconds observed so far, 0 before any shard probe has been recorded.
// The adaptive hedge-delay controller polls it: hedging at the shard p95
// re-issues roughly the slowest 5% of probes.
func (s *Server) ShardLatencyP95() float64 {
	var worst float64
	for _, h := range s.shardDur {
		if h.Count() == 0 {
			continue
		}
		if q := h.Quantile(0.95); q > worst {
			worst = q
		}
	}
	return worst
}

// handleQuality serves the shadow-sampling quality snapshot: recall /
// rank-displacement / score-error estimators, per-shard and
// since-compaction breakdowns, and the hot-query sketch.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.quality.Snapshot())
}

// handleSLO serves the multi-window SLO burn-rate snapshot.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// Handler returns the server's HTTP handler (for tests and embedding),
// wrapped in the access-log middleware when enabled.
func (s *Server) Handler() http.Handler {
	if s.access == nil {
		return s.mux
	}
	return s.withAccessLog(s.mux)
}

// Stats returns the same snapshot served at GET /stats.
func (s *Server) Stats() StatsSnapshot {
	snap := s.metrics.snapshot()
	if s.mut != nil {
		ms := s.mut.MutationStats()
		snap.Mutation = &ms
	}
	return snap
}

// Close stops the admission queue (failing queries still queued), the
// SLO snapshot ticker, and the shadow quality workers.
func (s *Server) Close() {
	s.batcher.close()
	if s.slo != nil {
		s.slo.Close()
	}
	if s.quality != nil {
		s.quality.Close()
	}
}

// batchSizeHeader carries the query count of a request so the
// access-log middleware can log it without re-parsing the body.
const batchSizeHeader = "X-Resinfer-Batch"

// traceIDHeader echoes a traced request's ID back to the client; the
// access-log middleware reads it from the response headers the same way
// it reads the batch size, and slowlog entries carry the same ID, so
// one request's three records join on it.
const traceIDHeader = "X-Resinfer-Trace-Id"

// nextTraceID allocates a process-unique request trace ID.
func (s *Server) nextTraceID() string {
	return fmt.Sprintf("%08x", s.traceSeq.Add(1))
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withAccessLog emits one logfmt-style line per request to stderr:
//
//	ts=... method=POST path=/search status=200 dur_ms=1.042 batch=8 remote=127.0.0.1:53420
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		batch := sw.Header().Get(batchSizeHeader)
		if batch == "" {
			batch = "0"
		}
		traceID := ""
		if tid := sw.Header().Get(traceIDHeader); tid != "" {
			traceID = " trace_id=" + tid
		}
		s.access.Printf("ts=%s method=%s path=%s status=%d dur_ms=%.3f batch=%s remote=%s%s",
			start.UTC().Format(time.RFC3339Nano), r.Method, r.URL.Path, sw.status,
			float64(time.Since(start))/float64(time.Millisecond), batch, r.RemoteAddr, traceID)
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// neighborJSON is one hit on the wire.
type neighborJSON struct {
	ID       int     `json:"id"`
	Distance float32 `json:"distance"`
}

// statsJSON mirrors resinfer.SearchStats on the wire.
type statsJSON struct {
	Comparisons  int64   `json:"comparisons"`
	Pruned       int64   `json:"pruned"`
	ScanRate     float64 `json:"scan_rate"`
	PrunedRate   float64 `json:"pruned_rate"`
	ShardsOK     int     `json:"shards_ok,omitempty"`
	ShardsFailed int     `json:"shards_failed,omitempty"`
}

type searchRequest struct {
	Query  []float32 `json:"query"`
	K      int       `json:"k"`
	Mode   string    `json:"mode"`
	Budget int       `json:"budget"`
	Trace  bool      `json:"trace"`
	// RequireFull opts out of the partial-result contract: if any shard
	// failed or missed the deadline, the request fails with 503 instead
	// of returning the surviving shards' merge.
	RequireFull bool `json:"require_full"`
}

type searchResponse struct {
	Neighbors []neighborJSON `json:"neighbors"`
	Stats     statsJSON      `json:"stats"`
	// Partial marks a response merged from a subset of shards: the
	// others failed or were abandoned at the deadline. Stats.ShardsOK /
	// Stats.ShardsFailed give the exact coverage.
	Partial bool       `json:"partial,omitempty"`
	Trace   *traceJSON `json:"trace,omitempty"`
}

type batchSearchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
	Mode    string      `json:"mode"`
	Budget  int         `json:"budget"`
}

type batchEntryJSON struct {
	Neighbors []neighborJSON `json:"neighbors"`
	Stats     statsJSON      `json:"stats"`
	Partial   bool           `json:"partial,omitempty"`
	Error     string         `json:"error,omitempty"`
}

type batchSearchResponse struct {
	Results []batchEntryJSON `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func toNeighborsJSON(ns []resinfer.Neighbor) []neighborJSON {
	out := make([]neighborJSON, len(ns))
	for i, n := range ns {
		out[i] = neighborJSON{ID: n.ID, Distance: n.Distance}
	}
	return out
}

func toStatsJSON(st resinfer.SearchStats) statsJSON {
	return statsJSON{
		Comparisons:  st.Comparisons,
		Pruned:       st.Pruned,
		ScanRate:     st.ScanRate,
		PrunedRate:   st.PrunedRate,
		ShardsOK:     st.ShardsOK,
		ShardsFailed: st.ShardsFailed,
	}
}

// resolveParams fills defaults and normalizes one request's parameters.
func (s *Server) resolveParams(k int, mode string, budget int) (batchKey, error) {
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	if budget <= 0 {
		budget = s.cfg.DefaultBudget
	}
	if mode == "" {
		mode = string(s.cfg.DefaultMode)
	}
	m, err := resinfer.ParseMode(mode)
	if err != nil {
		return batchKey{}, err
	}
	return batchKey{k: k, mode: m, budget: budget}, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Inc()
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxBody caps the body of a request that carries one vector (/search,
// /upsert, /delete, a peer's shard probe): 4 KiB for the rest of the
// request plus 64 bytes a coordinate, four times the longest float32 JSON
// writes. Decoding stops there, before the dimension check could reject
// what an unbounded body had already made the server buffer and parse.
func (s *Server) maxBody() int64 { return 4<<10 + 64*int64(s.idx.QueryDim()) }

// failDecode answers a body that did not decode: 413 past maxBody, 400
// otherwise.
func (s *Server) failDecode(w http.ResponseWriter, err error) {
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
		return
	}
	s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
}

// statusClientClosedRequest is nginx's conventional code for a request
// the client abandoned; no standard constant exists.
const statusClientClosedRequest = 499

// failSearch maps a search-path error to its HTTP status with the right
// counters: overload → 429 + Retry-After, deadline → 503 (a timeout),
// shutdown → 503, client cancellation → 499 — counted on its own,
// not inflating the error counter, since the server did nothing wrong.
func (s *Server) failSearch(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.metrics.shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// The client hung up; the write below is best-effort at most.
		s.metrics.clientCancels.Inc()
		writeJSON(w, statusClientClosedRequest, errorResponse{Error: "client closed request"})
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.Inc()
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrServerClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	default:
		s.fail(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.requests.Inc()
	var req searchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody())).Decode(&req); err != nil {
		s.failDecode(w, err)
		return
	}
	if len(req.Query) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty query"))
		return
	}
	// Reject a wrong-dimension query before admission: once inside the
	// micro-batcher it would fail SearchBatch's up-front validation and
	// take every other query grouped with it down too.
	if len(req.Query) != s.idx.QueryDim() {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("query dim %d, index expects %d", len(req.Query), s.idx.QueryDim()))
		return
	}
	key, err := s.resolveParams(req.K, req.Mode, req.Budget)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set(batchSizeHeader, "1")

	// Trace when the client asked (header or body flag) or whenever the
	// slowlog is armed — a slow request is only diagnosable if its
	// stages were being recorded while it ran. Traces are pooled and
	// reset in place, so steady-state tracing does not allocate.
	wantTrace := req.Trace || r.Header.Get("X-Resinfer-Trace") == "1"
	var tr *obs.Trace
	var traceID string
	if wantTrace || s.slowlog != nil {
		tr = getTrace(start)
		tr.End("decode", start)
	}
	if wantTrace {
		// A client-visible trace gets an ID echoed in the response
		// header, the access log, and any slowlog entry, so the three
		// records of one request can be joined. Allocated only on traced
		// requests — the plain path never formats it.
		traceID = s.nextTraceID()
		w.Header().Set(traceIDHeader, traceID)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	res := s.batcher.submit(ctx, req.Query, key, tr)
	if res.err != nil {
		s.failSearch(w, r, res.err)
		return
	}
	partial := res.stats.ShardsFailed > 0
	if partial && req.RequireFull {
		s.metrics.timeouts.Inc()
		s.fail(w, http.StatusServiceUnavailable,
			fmt.Errorf("partial result (%d/%d shards) rejected: require_full set",
				res.stats.ShardsOK, res.stats.ShardsOK+res.stats.ShardsFailed))
		return
	}
	if partial {
		s.metrics.partials.Inc()
	}
	s.metrics.queries.Inc()
	s.metrics.comparisons.Add(res.stats.Comparisons)
	s.metrics.pruned.Add(res.stats.Pruned)
	// Shadow quality sampling: one atomic on the common path; a sampled
	// query is copied into a pooled job and replayed off-path as an
	// exact scan (nil tracker = disabled, no-op).
	s.quality.MaybeSample(req.Query, res.neighbors, key.k)

	resp := searchResponse{
		Neighbors: toNeighborsJSON(res.neighbors),
		Stats:     toStatsJSON(res.stats),
		Partial:   partial,
	}
	encStart := time.Now()
	body, err := json.Marshal(resp)
	if tr != nil {
		tr.End("encode", encStart)
		snap := tr.Snapshot()
		if wantTrace && err == nil {
			// The encode stage a client sees in its trace was timed on the
			// body without it, so only a client-traced request is encoded
			// twice.
			resp.Trace = toTraceJSON(snap)
			body, err = json.Marshal(resp)
		}
		if s.slowlog != nil && snap.Total >= s.slowlog.threshold {
			s.slowlog.record(start, traceID, "/search", string(key.mode), key.k, key.budget, len(req.Query), snap)
		}
		// Recycled on this path only: a request that failed in submit may
		// have left its group executing, still recording stages into tr.
		putTrace(tr)
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	s.metrics.latency.ObserveDuration(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n')) // the client may be gone; nothing to do about it
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.requests.Inc()
	var req batchSearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	key, err := s.resolveParams(req.K, req.Mode, req.Budget)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set(batchSizeHeader, strconv.Itoa(len(req.Queries)))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	var results []resinfer.BatchResult
	select {
	case s.sem <- struct{}{}:
		results, err = s.idx.SearchBatchCtx(ctx, req.Queries, key.k, key.mode, key.budget, s.cfg.SearchWorkers, nil)
		<-s.sem
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		s.failSearch(w, r, err)
		return
	}
	out := batchSearchResponse{Results: make([]batchEntryJSON, len(results))}
	for i, res := range results {
		entry := batchEntryJSON{
			Neighbors: toNeighborsJSON(res.Neighbors),
			Stats:     toStatsJSON(res.Stats),
			Partial:   res.Stats.ShardsFailed > 0,
		}
		if res.Err != nil {
			entry.Error = res.Err.Error()
			s.metrics.errors.Inc()
		} else {
			if entry.Partial {
				s.metrics.partials.Inc()
			}
			s.metrics.queries.Inc()
			s.metrics.comparisons.Add(res.Stats.Comparisons)
			s.metrics.pruned.Add(res.Stats.Pruned)
			s.quality.MaybeSample(req.Queries[i], res.Neighbors, key.k)
		}
		out.Results[i] = entry
	}
	s.metrics.latency.ObserveDuration(time.Since(start))
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

type healthResponse struct {
	Status string   `json:"status"`
	Points int      `json:"points"`
	Dim    int      `json:"dim"`
	Modes  []string `json:"modes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	modes := []string{}
	for _, m := range s.idx.Modes() {
		modes = append(modes, string(m))
	}
	// Dim is the dimensionality clients must send queries in (the
	// internal dimensionality can differ under metric reduction).
	writeJSON(w, http.StatusOK, healthResponse{
		Status: "ok",
		Points: s.idx.Len(),
		Dim:    s.idx.QueryDim(),
		Modes:  modes,
	})
}

type readyResponse struct {
	Status   string `json:"status"`
	Degraded string `json:"degraded,omitempty"`
}

// handleReadyz is readiness, distinct from /healthz liveness: a degraded
// index (fail-stop read-only after persistent WAL failure) is alive —
// searches still serve — but not ready to take writes, so load
// balancers should route mutating traffic elsewhere. 503 while
// degraded, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadyCheck != nil {
		if err := s.cfg.ReadyCheck(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				readyResponse{Status: "catching-up", Degraded: err.Error()})
			return
		}
	}
	if s.mut != nil {
		if err := s.mut.Degraded(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				readyResponse{Status: "degraded", Degraded: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, readyResponse{Status: "ok"})
}

// handleDegradedClear is the operator's recovery path: once the disk is
// fixed, POST /admin/degraded/clear re-probes the WAL (rotating to a
// fresh segment) and, on success, lifts read-only mode.
func (s *Server) handleDegradedClear(w http.ResponseWriter, r *http.Request) {
	if err := s.mut.ClearDegraded(); err != nil {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("still degraded: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, readyResponse{Status: "ok"})
}

// Serve builds a listener on addr and serves until ctx cancellation,
// returning the bound address via the callback before blocking — used by
// callers that pass port 0.
func (s *Server) Serve(ctx context.Context, addr string, onReady func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := hs.Shutdown(shutCtx)
		s.Close()
		// With requests drained and the batcher stopped, flush durability
		// state: a final WAL fsync plus a checkpoint attempt, so a clean
		// shutdown restarts with nothing to replay. Best-effort — a
		// degraded WAL must not turn a graceful stop into a hang.
		if s.mut != nil {
			if serr := s.mut.SyncWAL(); serr == nil {
				_ = s.mut.Checkpoint()
			}
		}
		return err
	}
}

package quality

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"resinfer"
	"resinfer/internal/obs"
)

// Oracle is the exact-scan capability the tracker shadows queries
// against — satisfied by resinfer.ShardedIndex and resinfer.MutableIndex.
type Oracle interface {
	GroundTruthSearch(dst []resinfer.Neighbor, shards []int, q []float32, k int) ([]resinfer.Neighbor, []int, int, error)
	NumShards() int
}

// Config tunes the shadow sampler.
type Config struct {
	// SampleRate samples one query in SampleRate (1 = every query).
	// Values below 1 default to 256.
	SampleRate int
	// Workers is the ground-truth worker pool size (default 1 — the
	// scans are whole-corpus and deliberately bandwidth-bounded).
	Workers int
}

// The tracker's fixed shape. queueDepth bounds the sampled-query queue: a
// full queue drops the sample rather than backpressuring the request path.
// The windowed estimators slide over slidingWindow, split into windowSlots
// sub-windows, and the heavy-hitter sketch keeps hotCapacity keys.
const (
	queueDepth    = 8
	slidingWindow = 5 * time.Minute
	windowSlots   = 10
	hotCapacity   = 64
)

func (c Config) withDefaults() Config {
	if c.SampleRate < 1 {
		c.SampleRate = 256
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// job is one sampled query in flight to the worker pool. All slices are
// capacity-reused through the job pool so steady-state sampling does
// not allocate.
type job struct {
	q          []float32
	servedID   []int
	servedKey  []float32
	k          int
	truth      []resinfer.Neighbor
	truthShard []int
	rankOf     map[int]int
}

// shardAgg accumulates per-shard ground-truth hit rates: of the
// ground-truth neighbors living in this shard, how many did the served
// answer include.
type shardAgg struct {
	Truth uint64 `json:"truth_neighbors"`
	Found uint64 `json:"found"`
}

// epochAgg accumulates within one compaction epoch.
type epochAgg struct {
	n         uint64
	recallSum float64
}

// EpochSummary is an epoch aggregate rendered for the debug endpoint.
type EpochSummary struct {
	Samples    uint64  `json:"samples"`
	MeanRecall float64 `json:"mean_recall"`
}

// Tracker owns the shadow sampling pipeline: admission counter →
// bounded job queue → ground-truth workers → estimators.
type Tracker struct {
	cfg    Config
	oracle Oracle

	ctr      atomic.Uint64
	sampled  atomic.Uint64
	dropped  atomic.Uint64
	measured atomic.Uint64
	gtComp   atomic.Uint64

	jobs      chan *job
	jobPool   sync.Pool
	wg        sync.WaitGroup
	closing   atomic.Bool
	sendMu    sync.RWMutex // excludes sampled sends vs channel close
	closeOnce sync.Once

	// Cumulative + windowed estimators. The recall histogram buckets
	// recall in [0,1]; windows smooth the same signals over slidingWindow.
	recallHist *obs.Histogram
	recallWin  *obs.Window
	recallEWMA *obs.EWMA
	dispWin    *obs.Window
	scoreWin   *obs.Window

	// SLO feed: sample count and accumulated recall shortfall (1-recall
	// summed), both monotone so burn windows can diff snapshots.
	recallN          atomic.Uint64
	recallErrSumBits atomic.Uint64

	mu          sync.Mutex
	perShard    []shardAgg
	epoch       epochAgg
	prevEpoch   *EpochSummary
	compactions uint64

	sketch *SpaceSaving
}

// NewTracker builds the tracker and starts its worker pool.
func NewTracker(oracle Oracle, cfg Config) *Tracker {
	return newTracker(oracle, cfg, queueDepth)
}

// newTracker is NewTracker with a sampled-query queue of depth slots.
func newTracker(oracle Oracle, cfg Config, depth int) *Tracker {
	cfg = cfg.withDefaults()
	recallBounds := obs.LinearBuckets(0.05, 0.05, 20) // 0.05 .. 1.0
	t := &Tracker{
		cfg:        cfg,
		oracle:     oracle,
		jobs:       make(chan *job, depth),
		recallHist: obs.NewHistogram(recallBounds),
		recallWin:  obs.NewWindow(recallBounds, slidingWindow, windowSlots),
		recallEWMA: obs.NewEWMA(0.05),
		dispWin:    obs.NewWindow(obs.ExponentialBuckets(0.5, 2, 8), slidingWindow, windowSlots),
		scoreWin:   obs.NewWindow(obs.ExponentialBuckets(1e-6, 10, 8), slidingWindow, windowSlots),
		perShard:   make([]shardAgg, oracle.NumShards()),
		sketch:     NewSpaceSaving(hotCapacity),
	}
	t.jobPool.New = func() any { return &job{rankOf: make(map[int]int, 32)} }
	for i := 0; i < cfg.Workers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	return t
}

// MaybeSample admits roughly one call in cfg.SampleRate into the shadow
// pipeline. The non-sampled path is one atomic add; the sampled path
// copies the query and served answer into a pooled job and hands it to
// the worker queue, dropping (never blocking) when the queue is full.
// Safe for concurrent use; a nil tracker is a no-op.
//
//resinfer:noalloc
func (t *Tracker) MaybeSample(q []float32, served []resinfer.Neighbor, k int) {
	if t == nil {
		return
	}
	if t.ctr.Add(1)%uint64(t.cfg.SampleRate) != 0 {
		return
	}
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	if t.closing.Load() {
		return
	}
	j := t.jobPool.Get().(*job)
	j.q = append(j.q[:0], q...)
	j.servedID = j.servedID[:0]
	j.servedKey = j.servedKey[:0]
	for _, n := range served {
		j.servedID = append(j.servedID, n.ID)
		j.servedKey = append(j.servedKey, n.Distance)
	}
	j.k = k
	select {
	case t.jobs <- j:
		t.sampled.Add(1)
	default:
		t.dropped.Add(1)
		t.jobPool.Put(j)
	}
}

func (t *Tracker) worker() {
	defer t.wg.Done()
	for j := range t.jobs {
		t.measure(j)
		t.jobPool.Put(j)
	}
}

// measure shadows one sampled query with an exact scan and folds the
// comparison into every estimator.
func (t *Tracker) measure(j *job) {
	var err error
	j.truth, j.truthShard, _, err = t.oracle.GroundTruthSearch(j.truth[:0], j.truthShard[:0], j.q, j.k)
	if err != nil {
		return
	}
	truth := j.truth
	if len(truth) == 0 {
		return
	}
	for id := range j.rankOf {
		delete(j.rankOf, id)
	}
	for rank, n := range truth {
		j.rankOf[n.ID] = rank
	}

	denom := j.k
	if len(truth) < denom {
		denom = len(truth)
	}
	matches := 0
	var dispSum float64
	for i, id := range j.servedID {
		if r, ok := j.rankOf[id]; ok {
			matches++
			d := i - r
			if d < 0 {
				d = -d
			}
			dispSum += float64(d)
		}
	}
	recall := float64(matches) / float64(denom)
	disp := 0.0
	if matches > 0 {
		disp = dispSum / float64(matches)
	}
	// Score error: positional relative error between served and exact
	// merge keys over the overlapping prefix.
	var scoreErr float64
	np := len(j.servedKey)
	if len(truth) < np {
		np = len(truth)
	}
	for i := 0; i < np; i++ {
		want := float64(truth[i].Distance)
		got := float64(j.servedKey[i])
		den := math.Abs(want)
		if den < 1e-9 {
			den = 1e-9
		}
		scoreErr += math.Abs(got-want) / den
	}
	if np > 0 {
		scoreErr /= float64(np)
	}

	t.recallHist.Observe(recall)
	t.recallWin.Observe(recall)
	t.recallEWMA.Observe(recall)
	t.dispWin.Observe(disp)
	t.scoreWin.Observe(scoreErr)
	t.recallN.Add(1)
	addFloat(&t.recallErrSumBits, 1-recall)
	t.measured.Add(1)

	t.mu.Lock()
	for i, n := range truth {
		s := j.truthShard[i]
		if s >= 0 && s < len(t.perShard) {
			t.perShard[s].Truth++
			if _, ok := j.rankOf[n.ID]; ok {
				// found means the served answer contained it.
				if containsID(j.servedID, n.ID) {
					t.perShard[s].Found++
				}
			}
		}
	}
	t.epoch.n++
	t.epoch.recallSum += recall
	t.mu.Unlock()

	t.sketch.Offer(Fingerprint(j.q))
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// addFloat CAS-accumulates delta into a float64-bits atomic.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// RecallBurnFeed returns the monotone (samples, error-sum) pair the SLO
// tracker diffs across windows: error-sum is Σ(1 − recall@k).
func (t *Tracker) RecallBurnFeed() (n uint64, errSum float64) {
	if t == nil {
		return 0, 0
	}
	return t.recallN.Load(), math.Float64frombits(t.recallErrSumBits.Load())
}

// NoteCompaction rolls the since-compaction epoch: the finished epoch's
// summary is retained for one generation so a quality dip across a
// compaction is visible in /debug/quality.
func (t *Tracker) NoteCompaction() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := summarize(t.epoch)
	t.prevEpoch = &sum
	t.epoch = epochAgg{}
	t.compactions++
}

func summarize(e epochAgg) EpochSummary {
	s := EpochSummary{Samples: e.n}
	if e.n > 0 {
		s.MeanRecall = e.recallSum / float64(e.n)
	}
	return s
}

// ShardQuality is one shard's ground-truth hit rate.
type ShardQuality struct {
	Shard          uint64  `json:"shard"`
	TruthNeighbors uint64  `json:"truth_neighbors"`
	Found          uint64  `json:"found"`
	HitRate        float64 `json:"hit_rate"`
}

// Snapshot is the JSON body of GET /debug/quality.
type Snapshot struct {
	SampleRate int    `json:"sample_rate"`
	Sampled    uint64 `json:"sampled"`
	Dropped    uint64 `json:"dropped"`
	Measured   uint64 `json:"measured"`

	RecallMean       float64 `json:"recall_mean"`
	RecallEWMA       float64 `json:"recall_ewma"`
	RecallWindowMean float64 `json:"recall_window_mean"`
	RecallWindowP10  float64 `json:"recall_window_p10"`
	RecallWindowN    uint64  `json:"recall_window_samples"`

	RankDisplacementWindowMean float64 `json:"rank_displacement_window_mean"`
	ScoreErrorWindowMean       float64 `json:"score_error_window_mean"`

	PerShard []ShardQuality `json:"per_shard"`

	Compactions     uint64        `json:"compactions"`
	SinceCompaction EpochSummary  `json:"since_compaction"`
	PrevCompaction  *EpochSummary `json:"prev_compaction,omitempty"`

	HotQueries      []HotKey `json:"hot_queries"`
	HotQueriesTotal uint64   `json:"hot_queries_total"`
}

// Snapshot renders the tracker's current state.
func (t *Tracker) Snapshot() Snapshot {
	snap := Snapshot{
		SampleRate:       t.cfg.SampleRate,
		Sampled:          t.sampled.Load(),
		Dropped:          t.dropped.Load(),
		Measured:         t.measured.Load(),
		RecallMean:       t.recallHist.Mean(),
		RecallWindowMean: t.recallWin.Mean(),
		RecallWindowP10:  t.recallWin.Quantile(0.10),
		RecallWindowN:    t.recallWin.Count(),

		RankDisplacementWindowMean: t.dispWin.Mean(),
		ScoreErrorWindowMean:       t.scoreWin.Mean(),
	}
	if v := t.recallEWMA.Value(); !math.IsNaN(v) {
		snap.RecallEWMA = v
	}
	t.mu.Lock()
	snap.PerShard = make([]ShardQuality, len(t.perShard))
	for i, a := range t.perShard {
		sq := ShardQuality{Shard: uint64(i), TruthNeighbors: a.Truth, Found: a.Found}
		if a.Truth > 0 {
			sq.HitRate = float64(a.Found) / float64(a.Truth)
		}
		snap.PerShard[i] = sq
	}
	snap.Compactions = t.compactions
	snap.SinceCompaction = summarize(t.epoch)
	snap.PrevCompaction = t.prevEpoch
	t.mu.Unlock()
	snap.HotQueries = t.sketch.Top(10)
	snap.HotQueriesTotal = t.sketch.Total()
	return snap
}

// Register exports the tracker's metric families on reg.
func (t *Tracker) Register(reg *obs.Registry) {
	reg.GaugeFunc("resinfer_quality_sampled_total",
		"Shadow-sampled queries admitted to the ground-truth queue.",
		func() float64 { return float64(t.sampled.Load()) })
	reg.GaugeFunc("resinfer_quality_dropped_total",
		"Shadow samples dropped because the ground-truth queue was full.",
		func() float64 { return float64(t.dropped.Load()) })
	reg.GaugeFunc("resinfer_quality_measured_total",
		"Shadow samples fully measured against an exact scan.",
		func() float64 { return float64(t.measured.Load()) })
	reg.GaugeFunc("resinfer_quality_recall_window_mean",
		"Mean shadow recall@k over the sliding window.",
		func() float64 { return t.recallWin.Mean() })
	reg.GaugeFunc("resinfer_quality_recall_ewma",
		"Exponentially weighted moving average of shadow recall@k.",
		func() float64 {
			v := t.recallEWMA.Value()
			if math.IsNaN(v) {
				return 0
			}
			return v
		})
	reg.GaugeFunc("resinfer_quality_rank_displacement_window_mean",
		"Mean absolute rank displacement of served vs exact results over the window.",
		func() float64 { return t.dispWin.Mean() })
	reg.GaugeFunc("resinfer_quality_score_error_window_mean",
		"Mean relative score error of served vs exact results over the window.",
		func() float64 { return t.scoreWin.Mean() })
	// The cumulative recall distribution, for offline quantile queries
	// over scrape history.
	reg.RegisterHistogram("resinfer_quality_recall",
		"Distribution of shadow recall@k measurements.", t.recallHist)
}

// Close drains the worker pool. Idempotent; nil-safe.
func (t *Tracker) Close() {
	if t == nil {
		return
	}
	t.closeOnce.Do(func() {
		t.sendMu.Lock()
		t.closing.Store(true)
		close(t.jobs)
		t.sendMu.Unlock()
	})
	t.wg.Wait()
}

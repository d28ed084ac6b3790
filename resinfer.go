// Package resinfer is a Go implementation of the distance-computation
// framework of "Effective and General Distance Computation for Approximate
// Nearest Neighbor Search" (ICDE 2025): AKNN indexes (HNSW, IVF) whose
// refinement phase runs through pluggable distance comparison operators —
// exact scan, ADSampling (the SIGMOD 2023 baseline), and the paper's
// DDCres, DDCpca and DDCopq methods.
//
// Typical use:
//
//	idx, err := resinfer.New(data, resinfer.HNSW, nil)
//	err = idx.Enable(resinfer.DDCRes, nil)           // train the comparator
//	hits, err := idx.Search(q, 10, resinfer.DDCRes, 100)
//
// The learned comparators (DDCPCA, DDCOPQ) additionally need training
// queries:
//
//	err = idx.EnableWithTraining(resinfer.DDCOPQ, trainQueries, nil)
//
// All distances are squared Euclidean; identifiers refer to row positions
// in the data slice passed to New.
//
// Vectors are stored in one contiguous row-major buffer (internal/store)
// and the serving path is allocation-free at steady state: every enabled
// mode keeps a pool of query evaluators whose scratch (rotated query,
// suffix tables, PQ lookup tables) is reused across searches.
package resinfer

import (
	"fmt"
	"slices"
	"sync"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/ddc"
	"resinfer/internal/flat"
	"resinfer/internal/heap"
	"resinfer/internal/hnsw"
	"resinfer/internal/ivf"
	"resinfer/internal/pca"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Version identifies the library release; it is exported in the
// server's build-info metric and /stats document.
const Version = "0.8.0"

// Mode selects a distance computation method.
type Mode string

// Available distance computation methods.
const (
	// Exact computes every distance in full (the HNSW/IVF baselines).
	Exact Mode = "exact"
	// ADSampling is the random-projection baseline of Gao & Long
	// (SIGMOD 2023).
	ADSampling Mode = "adsampling"
	// DDCRes is the paper's PCA-projection method with the m·σ Gaussian
	// error bound (§IV, Algorithms 1–2).
	DDCRes Mode = "ddc-res"
	// DDCPCA is the paper's learned correction over plain PCA distances
	// (§V-B); requires training queries.
	DDCPCA Mode = "ddc-pca"
	// DDCOPQ is the paper's learned correction over OPQ asymmetric
	// distances (§V-B); requires training queries.
	DDCOPQ Mode = "ddc-opq"
)

// IndexKind selects the AKNN index structure.
type IndexKind string

// Available index kinds.
const (
	// HNSW is the hierarchical navigable small world graph; the search
	// budget parameter is the beam width ef.
	HNSW IndexKind = "hnsw"
	// IVF is the inverted-file index; the search budget parameter is
	// nprobe, the number of clusters scanned.
	IVF IndexKind = "ivf"
	// Flat scans every point through the comparator (the linear-scan
	// setting of the paper's Table III); the budget parameter is ignored.
	Flat IndexKind = "flat"
)

// Documented option defaults, materialized by Options.withDefaults so
// every package sees the same configuration instead of re-defaulting
// internally.
const (
	// DefaultHNSWM is the HNSW graph degree.
	DefaultHNSWM = 16
	// DefaultHNSWEfConstruction is the HNSW construction beam width.
	DefaultHNSWEfConstruction = 200
	// DefaultADSEpsilon0 is ADSampling's significance parameter.
	DefaultADSEpsilon0 = 2.1
	// DefaultResMultiplier is DDCres's error-bound multiplier m.
	DefaultResMultiplier = 3
	// DefaultDeltaD is the incremental projection step shared by
	// ADSampling and DDCres.
	DefaultDeltaD = 32
	// DefaultTargetRecall is the label-0 recall target of the learned
	// methods.
	DefaultTargetRecall = 0.995
)

// Options tunes index construction and comparator training. The zero value
// (or nil) gives the defaults used in the paper's configuration.
type Options struct {
	// HNSWM is the graph degree (default 16).
	HNSWM int
	// HNSWEfConstruction is the construction beam width (default 200).
	HNSWEfConstruction int
	// IVFNList is the cluster count (default ≈√n).
	IVFNList int
	// ADSEpsilon0 is ADSampling's significance parameter (default 2.1).
	ADSEpsilon0 float64
	// ResMultiplier is DDCres's error-bound multiplier m (default 3).
	ResMultiplier float64
	// DeltaD is the incremental projection step shared by ADSampling and
	// DDCres (default 32).
	DeltaD int
	// TargetRecall is the label-0 recall target of the learned methods
	// (default 0.995).
	TargetRecall float64
	// OPQSubspaces is DDCopq's subspace count M (default dim/4, ≤64).
	OPQSubspaces int
	// Metric selects the similarity measure (default L2). Cosine and
	// InnerProduct are reduced to Euclidean internally; see MetricKind.
	Metric MetricKind
	// Seed makes construction and training deterministic.
	Seed int64
}

// withDefaults materializes every documented default in one place. Fields
// whose default depends on the data (IVFNList ≈ √n, OPQSubspaces = dim/4)
// stay zero and are resolved by the respective package at build time.
func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.HNSWM <= 0 {
		out.HNSWM = DefaultHNSWM
	}
	if out.HNSWEfConstruction <= 0 {
		out.HNSWEfConstruction = DefaultHNSWEfConstruction
	}
	if out.HNSWEfConstruction < out.HNSWM {
		out.HNSWEfConstruction = out.HNSWM
	}
	if out.ADSEpsilon0 <= 0 {
		out.ADSEpsilon0 = DefaultADSEpsilon0
	}
	if out.ResMultiplier <= 0 {
		out.ResMultiplier = DefaultResMultiplier
	}
	if out.DeltaD <= 0 {
		out.DeltaD = DefaultDeltaD
	}
	if out.TargetRecall == 0 {
		out.TargetRecall = DefaultTargetRecall
	}
	if out.Metric == "" {
		out.Metric = L2
	}
	return out
}

// Neighbor is one search hit.
type Neighbor struct {
	ID       int
	Distance float32
}

// SearchStats reports the distance-computation work of one search call.
type SearchStats struct {
	// Comparisons is the number of threshold comparisons performed.
	Comparisons int64
	// Pruned is how many candidates were discarded from approximate
	// distances alone.
	Pruned int64
	// ScanRate is the fraction of vector coordinates touched relative to
	// an exact scan over the same comparisons.
	ScanRate float64
	// PrunedRate is Pruned / Comparisons.
	PrunedRate float64
	// ShardsOK and ShardsFailed report fan-out coverage on a sharded
	// search: how many shards contributed to the merge and how many
	// failed or were abandoned at the deadline. Both are zero on
	// single-index searches; ShardsFailed is only ever non-zero on the
	// deadline-aware path, where ShardsFailed > 0 with a nil error marks
	// a partial result.
	ShardsOK, ShardsFailed int
}

// session is one pooled unit of per-query state: a resettable evaluator
// plus the metric-transform buffer and the raw-hit scratch. Sessions are
// recycled through per-mode sync.Pools, so a steady-state search allocates
// nothing beyond the caller-visible result slice.
type session struct {
	ev    core.ResettableEvaluator
	qbuf  []float32   // metric-transform scratch (internal dimensionality)
	items []heap.Item // raw index hits before Neighbor conversion
}

// enabledMode is a trained comparator and the pool of sessions whose
// evaluators it built.
type enabledMode struct {
	dco  core.DCO
	pool *sync.Pool
}

// Index is an AKNN index with swappable distance computation.
//
// Concurrency: an Index is read-safe. Once New returns, and once any
// Enable/EnableWithTraining call returns, any number of goroutines may
// call Search, SearchInto and SearchBatch concurrently — searches
// share the immutable index structure and draw per-query evaluators from
// a pool. Enable* calls serialize internally and may run concurrently
// with searches; a mode becomes visible to searches atomically. The rows
// are held once: the first PCA mode re-bases them (see enable).
type Index struct {
	kind    IndexKind
	n       int // rows, fixed at construction
	dim     int // internal dimensionality
	userDim int // dimensionality callers present queries in
	metric  *metricState
	opts    Options

	hnswIdx *hnsw.Index // its rows are data, re-based with it
	ivfIdx  *ivf.Index  // centroids in the internal space, whatever the basis
	flatIdx *flat.Index

	enableMu sync.Mutex // one Enable* at a time: train, re-base, install

	// mu guards what follows; a re-base replaces data and basis.
	mu    sync.RWMutex
	data  *store.Matrix // the rows: in the internal space, or in basis
	basis *pca.Model    // nil until a PCA mode re-bases the index
	modes map[Mode]enabledMode
}

// New builds an index of the given kind over data (rows of equal length,
// row index = neighbor ID). The rows are copied into one contiguous
// row-major buffer; the caller's slices are not retained. The Exact mode
// is always available; other modes are trained on demand via Enable /
// EnableWithTraining.
func New(data [][]float32, kind IndexKind, opts *Options) (*Index, error) {
	return newIndex(len(data), func(i int) (int, []float32) { return i, data[i] }, kind, opts.withDefaults())
}

// newIndex ingests n caller-space rows (see ingest) and builds an index of
// the given kind over them: what New and every shard of NewSharded do. o
// has its defaults applied.
func newIndex(n int, row func(i int) (id int, v []float32), kind IndexKind, o Options) (*Index, error) {
	mat, ms, err := ingest(n, row, o.Metric, 0)
	if err != nil {
		return nil, err
	}
	return buildIndex(mat, ms, nil, kind, o)
}

// buildIndex builds an index of the given kind over mat, its rows: in the
// internal space of ms or, compacting a re-based shard, projected by basis.
func buildIndex(mat *store.Matrix, ms *metricState, basis *pca.Model, kind IndexKind, o Options) (*Index, error) {
	ix := &Index{
		kind:    kind,
		n:       mat.Rows(),
		data:    mat,
		basis:   basis,
		dim:     mat.Dim(),
		userDim: mat.Dim(),
		metric:  ms,
		opts:    o,
		modes:   map[Mode]enabledMode{},
	}
	if ms.kind == InnerProduct {
		ix.userDim = ms.ip.Dim
	}
	exact, err := core.NewExactIn(mat, basis)
	if err != nil {
		return nil, err
	}
	ix.installDCO(Exact, exact)
	switch kind {
	case HNSW:
		idx, err := hnsw.Build(mat, hnsw.Config{
			M:              o.HNSWM,
			EfConstruction: o.HNSWEfConstruction,
			Seed:           o.Seed,
		})
		if err != nil {
			return nil, err
		}
		ix.hnswIdx = idx
	case IVF:
		idx, err := ivf.Build(mat, ivf.Config{NList: o.IVFNList, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		if basis != nil { // probes compare centroids with the unrotated query
			c, err := basis.Unproject(idx.Centroids())
			if err != nil {
				return nil, err
			}
			copy(idx.Centroids().Flat(), c.Flat())
		}
		ix.ivfIdx = idx
	case Flat:
		idx, err := flat.Build(mat)
		if err != nil {
			return nil, err
		}
		ix.flatIdx = idx
	default:
		return nil, fmt.Errorf("resinfer: unknown index kind %q", kind)
	}
	return ix, nil
}

// installDCO publishes a trained comparator and its session pool.
func (ix *Index) installDCO(mode Mode, dco core.DCO) {
	dim := ix.dim
	pool := &sync.Pool{New: func() any {
		return &session{ev: dco.NewEvaluator(), qbuf: make([]float32, dim)}
	}}
	ix.mu.Lock()
	ix.modes[mode] = enabledMode{dco: dco, pool: pool}
	ix.mu.Unlock()
}

// Enable trains and installs a self-calibrating comparator (ADSampling or
// DDCRes). For the learned methods use EnableWithTraining.
func (ix *Index) Enable(mode Mode, opts *Options) error {
	switch mode {
	case Exact:
		return nil
	case ADSampling, DDCRes:
		return ix.enable(mode, nil, opts, nil)
	case DDCPCA, DDCOPQ:
		return fmt.Errorf("resinfer: mode %s needs training queries; use EnableWithTraining", mode)
	}
	return fmt.Errorf("resinfer: unknown mode %q", mode)
}

// EnableWithTraining trains and installs any comparator; trainQueries are
// required for DDCPCA and DDCOPQ and ignored otherwise.
func (ix *Index) EnableWithTraining(mode Mode, trainQueries [][]float32, opts *Options) error {
	switch mode {
	case Exact:
		return nil
	case ADSampling, DDCRes, DDCPCA, DDCOPQ:
		return ix.enable(mode, trainQueries, opts, nil)
	}
	return fmt.Errorf("resinfer: unknown mode %q", mode)
}

// rotationOf returns the rotation mode's installed comparator is built
// around, the part of it that does not depend on the rows it covers: the PCA
// model of ddc-res and ddc-pca (the index's basis), the mean-free model
// holding adsampling's random orthogonal matrix. A ShardedIndex trains one
// per mode and builds every shard's comparator around it, and a compacted
// shard takes over the one of the base it replaces, so a fan-out rotates its
// query once. It is nil when there is none; around a nil rotation a
// comparator trains its own.
func (ix *Index) rotationOf(mode Mode) *pca.Model {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if d, ok := ix.modes[mode].dco.(interface{ Model() *pca.Model }); ok {
		return d.Model()
	}
	return nil
}

// enable trains mode's comparator around rot (see rotationOf; nil trains
// one) and installs it.
func (ix *Index) enable(mode Mode, trainQueries [][]float32, opts *Options, rot *pca.Model) error {
	ix.enableMu.Lock()
	defer ix.enableMu.Unlock()
	if ix.Enabled(mode) {
		return nil
	}
	o := ix.opts
	if opts != nil {
		o = opts.withDefaults()
	}
	if (mode == DDCPCA || mode == DDCOPQ) && len(trainQueries) == 0 {
		return fmt.Errorf("resinfer: %s needs training queries", mode)
	}
	// Training queries live in the caller's space; move them into the
	// internal (metric-reduced) space the comparators operate in.
	if len(trainQueries) > 0 && ix.metric.kind != L2 {
		transformed := make([][]float32, len(trainQueries))
		for i, tq := range trainQueries {
			var err error
			if transformed[i], err = ix.metric.transformInto(make([]float32, ix.dim), tq); err != nil {
				return err
			}
		}
		trainQueries = transformed
	}
	// The first PCA mode re-bases the rows, so exact, ddc-res, ddc-pca and
	// the graph read one matrix: into rot's basis with σ refit to them, or
	// into one trained on them. The other modes read rows in the internal
	// space, on a re-based index derived through the basis inverse.
	rows, basis := ix.rows()
	rebase := basis == nil && (mode == DDCRes || mode == DDCPCA)
	var err error
	switch {
	case rebase && rot == nil:
		if basis, err = pca.Train(pca.Config{Seed: o.Seed}, rows); err == nil {
			rows, err = basis.ProjectMatrix(rows, 0)
		}
	case rebase:
		if rows, err = rot.ProjectMatrix(rows, 0); err == nil {
			basis = rot.Refit(rows)
		}
	case basis != nil && (mode == ADSampling || mode == DDCOPQ):
		rows, err = basis.Unproject(rows)
	}
	var dco core.DCO
	switch {
	case err != nil:
	case mode == ADSampling:
		dco, err = adsampling.NewFromModel(rows, rot, adsampling.Config{
			Epsilon0: o.ADSEpsilon0, DeltaD: o.DeltaD, Seed: o.Seed,
		})
	case mode == DDCRes:
		dco, err = ddc.NewResRotated(rows, basis, ddc.ResConfig{
			Multiplier: o.ResMultiplier, InitD: o.DeltaD, DeltaD: o.DeltaD,
		})
	case mode == DDCPCA:
		dco, err = ddc.NewPCARotated(rows, trainQueries, basis, ddc.PCAConfig{
			TargetRecall: o.TargetRecall, Seed: o.Seed,
			Collect: ddc.CollectConfig{K: 100, NegPerQuery: 100},
		})
	case mode == DDCOPQ:
		dco, err = ddc.NewOPQ(rows, trainQueries, ddc.OPQConfig{
			M: o.OPQSubspaces, TargetRecall: o.TargetRecall, Seed: o.Seed,
			OPQSample: 8192,
			Collect:   ddc.CollectConfig{K: 100, NegPerQuery: 100},
		})
	}
	if err == nil && rebase {
		err = ix.rebase(rows, basis)
	}
	if err != nil {
		return fmt.Errorf("resinfer: enabling %s: %w", mode, err)
	}
	ix.installDCO(mode, dco)
	return nil
}

// rebase makes rows, the index's rows projected by basis, its one copy:
// exact and the graph move onto them, and the old rows are let go.
func (ix *Index) rebase(rows *store.Matrix, basis *pca.Model) error {
	exact, err := core.NewExactIn(rows, basis)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	if ix.hnswIdx != nil {
		ix.hnswIdx.Rebase(rows)
	}
	ix.data, ix.basis = rows, basis
	ix.mu.Unlock()
	ix.installDCO(Exact, exact)
	return nil
}

// rows returns the index's rows and their basis (nil: the internal space).
func (ix *Index) rows() (*store.Matrix, *pca.Model) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.data, ix.basis
}

// Enabled reports whether the mode's comparator is ready.
func (ix *Index) Enabled(mode Mode) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.modes[mode]
	return ok
}

// acquire checks out a pooled session for the mode. The caller must return
// it with pool.Put when the search is done.
func (ix *Index) acquire(mode Mode) (*session, *sync.Pool, error) {
	ix.mu.RLock()
	em, ok := ix.modes[mode]
	ix.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("resinfer: mode %s not enabled", mode)
	}
	return em.pool.Get().(*session), em.pool, nil
}

// Search returns the approximate k nearest neighbors of q using the given
// mode. budget is the index's quality knob: beam width ef for HNSW, probe
// count for IVF; values below k are clamped up.
func (ix *Index) Search(q []float32, k int, mode Mode, budget int) ([]Neighbor, error) {
	ns, _, err := ix.SearchInto(nil, q, k, mode, budget)
	return ns, err
}

// SearchInto is Search appending the hits to dst, plus the
// distance-computation work counters. A caller that reuses dst across
// queries (dst = res[:0]) keeps the steady-state search path free of
// allocations: the evaluator, its scratch tables and the index's
// traversal state all come from pools.
//
//resinfer:noalloc
func (ix *Index) SearchInto(dst []Neighbor, q []float32, k int, mode Mode, budget int) ([]Neighbor, SearchStats, error) {
	if len(q) != ix.userDim {
		//resinfer:alloc-ok cold invalid-argument path
		return dst, SearchStats{}, fmt.Errorf("resinfer: query dim %d, index expects %d", len(q), ix.userDim)
	}
	s, pool, err := ix.acquire(mode)
	if err != nil {
		return dst, SearchStats{}, err
	}
	dst, st, err := ix.searchSession(s, dst, q, k, budget)
	pool.Put(s)
	return dst, st, err
}

// searchSession runs one query through an already-acquired session.
//
//resinfer:noalloc
func (ix *Index) searchSession(s *session, dst []Neighbor, q []float32, k, budget int) ([]Neighbor, SearchStats, error) {
	tq, err := ix.metric.transformInto(s.qbuf, q)
	if err != nil {
		return dst, SearchStats{}, err
	}
	if err := s.ev.Reset(tq); err != nil {
		return dst, SearchStats{}, err
	}
	return ix.walk(s, dst, tq, k, budget)
}

// searchShard is SearchInto for one probe of a sharded fan-out, k apart
// (a mutable shard over-fetches): fs holds the query already in the
// internal space, and a rotating evaluator is primed from fs's rotate-once
// slot, so shards whose comparators share a rotation share the D² rotation
// of the query too.
//
//resinfer:noalloc
func (ix *Index) searchShard(dst []Neighbor, fs *fanScratch, k int) ([]Neighbor, SearchStats, error) {
	s, pool, err := ix.acquire(fs.mode)
	if err != nil {
		return dst, SearchStats{}, err
	}
	err = fs.prime(s.ev)
	var st SearchStats
	if err == nil {
		dst, st, err = ix.walk(s, dst, fs.tq, k, fs.budget)
	}
	pool.Put(s)
	return dst, st, err
}

// walk runs the index traversal for the query s.ev was reset to (tq, in
// the internal space) and appends the hits to dst.
//
//resinfer:noalloc
func (ix *Index) walk(s *session, dst []Neighbor, tq []float32, k, budget int) ([]Neighbor, SearchStats, error) {
	var err error
	s.items = s.items[:0]
	switch ix.kind {
	case HNSW:
		s.items, err = ix.hnswIdx.SearchEval(s.ev, k, budget, ix.n, s.items)
	case IVF:
		s.items, err = ix.ivfIdx.SearchEval(s.ev, tq, k, budget, ix.n, s.items)
	case Flat:
		s.items, err = ix.flatIdx.SearchEval(s.ev, k, ix.n, s.items)
	default:
		//resinfer:alloc-ok unreachable-by-construction kind guard
		err = fmt.Errorf("resinfer: unknown index kind %q", ix.kind)
	}
	if err != nil {
		return dst, SearchStats{}, err
	}
	for _, it := range s.items {
		dst = append(dst, Neighbor{ID: it.ID, Distance: it.Dist})
	}
	st := s.ev.Stats()
	return dst, SearchStats{
		Comparisons: st.Comparisons,
		Pruned:      st.Pruned,
		ScanRate:    st.ScanRate(ix.dim),
		PrunedRate:  st.PrunedRate(),
	}, nil
}

// SIMDLevel reports which distance-kernel implementation runtime dispatch
// selected for this process: "avx2+fma" (amd64 with AVX2 and FMA),
// "neon" (arm64) or "generic" (the portable scalar fallback, also forced
// by the `noasm` build tag or the RESINFER_NOSIMD=1 environment
// variable). Deployments surface this in startup banners and /stats so a
// silent fall back to the scalar path is visible.
func SIMDLevel() string { return vec.Level() }

// Kind returns the index structure.
func (ix *Index) Kind() IndexKind { return ix.kind }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.n }

// Dim returns the internal vector dimensionality (after any metric
// reduction; InnerProduct augments rows with one coordinate).
func (ix *Index) Dim() int { return ix.dim }

// QueryDim returns the dimensionality callers must present queries in —
// the dimensionality of the data passed to New, independent of metric.
func (ix *Index) QueryDim() int { return ix.userDim }

// Modes lists the currently enabled comparators in name order.
func (ix *Index) Modes() []Mode {
	ix.mu.RLock()
	out := make([]Mode, 0, len(ix.modes))
	for m := range ix.modes {
		out = append(out, m)
	}
	ix.mu.RUnlock()
	slices.Sort(out)
	return out
}

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
	"sync/atomic"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/ddc"
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

// ParseMode returns the mode named s, or an error naming s when no mode
// has that name.
func ParseMode(s string) (Mode, error) {
	switch m := Mode(s); m {
	case Exact, ADSampling, DDCRes, DDCPCA, DDCOPQ:
		return m, nil
	}
	return "", fmt.Errorf("resinfer: unknown mode %q", s)
}

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
	// setting of the paper's Table III): it is IVF with one list holding
	// every point, so the budget parameter is ignored.
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
// and its comparator's Model, plus the metric-transform buffer and the
// raw-hit scratch. Sessions are recycled through per-mode sync.Pools, so a
// steady-state search allocates nothing beyond the caller-visible result
// slice.
type session struct {
	ev    core.ResettableEvaluator
	model *pca.Model  // the projection ev reads queries through (nil: none)
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

	// The structure over data's rows, holding none of them: the graph, or
	// the lists (Flat's is one list) with centroids in the internal space,
	// whatever the basis.
	hnswIdx *hnsw.Index
	ivfIdx  *ivf.Index
	// flat is the Flat view of an HNSW or IVF index's rows, the one list
	// ground truth and an HNSW scan read (see flatView), built on first use.
	flat atomic.Pointer[ivf.Index]
	// model is the PCA model trained where the index was built or loaded
	// (a shard's is its sharded index's, a compacted shard's its
	// predecessor's), set before the index is shared: exact prunes on it
	// while the rows are in no basis, and the first PCA mode re-bases onto
	// it. nil where none was trained (see constructionModel).
	model *pca.Model

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
// EnableWithTraining. Beside the structure, New trains the index's PCA
// model (see constructionModel), which exact prunes on and the first PCA
// mode re-bases onto.
func New(data [][]float32, kind IndexKind, opts *Options) (*Index, error) {
	o := opts.withDefaults()
	mat, ms, err := ingest(len(data), func(i int) (int, []float32) { return i, data[i] }, o.Metric, 0)
	if err != nil {
		return nil, err
	}
	return buildIndex(mat, ms, nil, kind, o, func() *pca.Model { return constructionModel(o.Seed, mat) })
}

// trainModel is the one place an index's PCA model is trained, over the
// rows of mats in order: the model a PCA mode re-bases the index onto. With
// no sample cap it depends on the rows alone, not on seed.
func trainModel(seed int64, mats ...*store.Matrix) (*pca.Model, error) {
	return pca.Train(pca.Config{Seed: seed}, mats...)
}

// constructionModel is trainModel where an index is built or loaded. It
// trains only where exact's prefix bound can use the model, rows of more
// than core.PrefixDim coordinates, and where there are at least as many
// rows as coordinates, so the D² covariance is no larger than the rows that
// arrived. Otherwise, or when training fails, there is no model: exact
// prunes nothing and the first PCA mode trains its own.
func constructionModel(seed int64, mats ...*store.Matrix) *pca.Model {
	n, d := 0, mats[0].Dim()
	for _, m := range mats {
		n += m.Rows()
	}
	if d <= core.PrefixDim || n < d {
		return nil
	}
	model, err := trainModel(seed, mats...)
	if err != nil {
		return nil
	}
	return model
}

// buildIndex builds an index of the given kind over mat, its rows: in the
// internal space of ms or, compacting a re-based shard, projected by basis.
// model, which may block, runs beside the structure build and returns the
// index's PCA model (see adopt).
func buildIndex(mat *store.Matrix, ms *metricState, basis *pca.Model, kind IndexKind, o Options, model func() *pca.Model) (*Index, error) {
	trained := make(chan *pca.Model, 1)
	go func() { trained <- model() }()
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
	var err error
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
		if ix.ivfIdx, err = ivf.OneList(ix.n, ix.dim); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("resinfer: unknown index kind %q", kind)
	}
	return ix, ix.adopt(<-trained)
}

// adopt makes model the index's PCA model and installs Exact over its rows
// with it: on rows in no basis exact prunes on model's prefix, on rows in a
// basis on the basis's (see core.NewExactIn). nil is no model.
func (ix *Index) adopt(model *pca.Model) error {
	exact, err := core.NewExactIn(ix.data, ix.basis, model)
	if err != nil {
		return err
	}
	ix.model = model
	ix.installDCO(Exact, exact)
	return nil
}

// installDCO publishes a trained comparator and its session pool.
func (ix *Index) installDCO(mode Mode, dco core.DCO) {
	dim, model := ix.dim, dco.Model()
	pool := &sync.Pool{New: func() any {
		return &session{ev: dco.NewEvaluator(), model: model, qbuf: make([]float32, dim)}
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
	if em, ok := ix.modes[mode]; ok {
		return em.dco.Model()
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
	// The first PCA mode re-bases the rows, so exact, ddc-res and ddc-pca
	// read one matrix: into rot's basis with σ refit to them, or into the
	// index's model, trained on them at construction (here, if there is
	// none). The other modes read rows in the internal
	// space, on a re-based index derived through the basis inverse.
	rows, basis := ix.rows()
	rebase := basis == nil && (mode == DDCRes || mode == DDCPCA)
	var err error
	switch {
	case rebase && rot == nil:
		if basis = ix.model; basis == nil {
			basis, err = trainModel(o.Seed, rows)
		}
		if err == nil {
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
		})
	case mode == DDCOPQ:
		dco, err = ddc.NewOPQ(rows, trainQueries, ddc.OPQConfig{
			M: o.OPQSubspaces, TargetRecall: o.TargetRecall, Seed: o.Seed,
			OPQSample: 8192,
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
// exact moves onto them, and the old rows are let go. The structure stays:
// a rotation changes no distance, so the graph and the lists are the same
// in either basis.
func (ix *Index) rebase(rows *store.Matrix, basis *pca.Model) error {
	exact, err := core.NewExactIn(rows, basis, nil)
	if err != nil {
		return err
	}
	ix.mu.Lock()
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
// count for IVF; values below k are clamped up. An HNSW index whose ef
// reaches ⌈n / 2M⌉ scans its rows instead of walking: past that, a walk
// would read about as many neighbour lists as there are rows.
func (ix *Index) Search(q []float32, k int, mode Mode, budget int) ([]Neighbor, error) {
	ns, _, err := ix.SearchInto(nil, q, k, mode, budget)
	return ns, err
}

// SearchInto is Search appending the hits to dst, plus the
// distance-computation work counters (Comparisons is n when an HNSW index
// scans, see Search). A caller that reuses dst across queries
// (dst = res[:0]) keeps the steady-state search path free of allocations:
// the evaluator, its scratch tables and the index's traversal state all
// come from pools.
//
//resinfer:noalloc
func (ix *Index) SearchInto(dst []Neighbor, q []float32, k int, mode Mode, budget int) ([]Neighbor, SearchStats, error) {
	if err := checkQuery(q, ix.userDim); err != nil {
		return dst, SearchStats{}, err
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
	return ix.walk(s, dst, tq, k, budget, false, nil)
}

// searchShard is SearchInto for one probe of a sharded fan-out: fs holds
// the query already in the internal space, and a rotating evaluator is
// primed from fs's rotate-once slot, so shards whose comparators share a
// rotation share the D² rotation of the query too. With fs.flat set it
// walks ix's Flat view. mask hides the shard's deleted and shadowed rows
// inside the scan or walk, so the answer is the fs.k nearest live rows
// and every comparison prunes against the k-th live distance.
//
//resinfer:noalloc
func (ix *Index) searchShard(dst []Neighbor, fs *fanScratch, mask core.RowMask) ([]Neighbor, SearchStats, error) {
	s, pool, err := ix.acquire(fs.mode)
	if err != nil {
		return dst, SearchStats{}, err
	}
	err = fs.prime(s.ev, s.model)
	var st SearchStats
	if err == nil {
		dst, st, err = ix.walk(s, dst, fs.tq, fs.k, fs.budget, fs.flat, mask)
	}
	pool.Put(s)
	return dst, st, err
}

// walk runs the index traversal for the query s.ev was reset to (tq, in
// the internal space) — or, with flat set, the scan of ix's Flat view —
// and appends the hits to dst, none of which mask hides (nil: none). An
// HNSW index walks its graph only below the break-even beam width
// (hnsw.Index.ScanFrom); from there it scans.
//
//resinfer:noalloc
func (ix *Index) walk(s *session, dst []Neighbor, tq []float32, k, budget int, flat bool, mask core.RowMask) ([]Neighbor, SearchStats, error) {
	var err error
	if ix.hnswIdx != nil && !flat && max(budget, k) < ix.hnswIdx.ScanFrom() {
		s.items, err = ix.hnswIdx.SearchMasked(s.ev, k, budget, ix.n, mask, s.items[:0])
	} else { // IVF, Flat as its one list, and any index's Flat view
		lists := ix.ivfIdx
		if flat || ix.hnswIdx != nil {
			lists, err = ix.flatView()
		}
		if err == nil {
			s.items, err = lists.SearchEval(s.ev, tq, k, budget, ix.n, mask, s.items[:0])
		}
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

// flatView returns the Flat index over ix's rows: ivfIdx itself on a Flat
// index, otherwise one list 0…n−1 (4n bytes) built on first use by any
// scanning search — ground truth, or an HNSW search at or past the
// break-even ef — so an index that never scans holds none.
//
//resinfer:noalloc
func (ix *Index) flatView() (*ivf.Index, error) {
	if ix.kind == Flat {
		return ix.ivfIdx, nil
	}
	if v := ix.flat.Load(); v != nil {
		return v, nil
	}
	v, err := ivf.OneList(ix.n, ix.dim) //resinfer:alloc-ok built once per index
	if err != nil {
		return nil, err
	}
	ix.flat.CompareAndSwap(nil, v)
	return ix.flat.Load(), nil
}

// SIMDLevel reports which distance-kernel implementation runtime dispatch
// selected for this process: "avx2+fma" (amd64 with AVX2 and FMA),
// "neon" (arm64) or "generic" (the portable scalar fallback, also forced
// by the `noasm` build tag). Deployments surface this in startup banners
// and /stats so a silent fall back to the scalar path is visible.
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

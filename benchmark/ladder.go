package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"resinfer"
	"resinfer/internal/core"
	"resinfer/internal/heap"
	"resinfer/internal/hnsw"
	"resinfer/internal/stream"
	"resinfer/internal/vec"
)

// The traced run walks the whole ladder, outside in, on one stack built
// from the seed — kernels, comparator under the graph walk, root Index,
// ShardedIndex, HTTP server, MutableIndex under ingest — whatever
// workload it was asked for, so every layer number exists at the same n
// and d. The rungs are the four workloads' own traffic, replayed briefly
// under span tracing; the named workload's rung runs for three fifths of
// the requested seconds untraced and two fifths traced, which gives its
// p99_ms, its tracing overhead and where its latency goes, layer by layer.

// stack is every fixture of the traced run.
type stack struct {
	lib   *libFixture
	serve *serveFixture // started after the sharded rung has run on its index
	mixed *mixedFixture
}

func (st *stack) close() error {
	var errs []error
	if st.serve != nil {
		errs = append(errs, st.serve.close())
	}
	if st.mixed != nil {
		errs = append(errs, st.mixed.close())
	}
	return errors.Join(errs...)
}

// spanNames are the layers a traced search can spend time in (mutations
// are traced under names of their own); a workload's self_share.<name> is
// the share of its search time spent in that layer's own code, 0 for a
// layer it bypasses.
var spanNames = []string{
	"lib.search", "cmp.reset", "hnsw.walk", "cmp.compare", "cmp.distance",
	"request", "loadgen.wait", "server.http", "server.decode", "server.queue_wait",
	"server.fanout", "server.merge", "server.encode", "mutable.search", "shard",
}

func runTraced(e *env, w workloadSpec, dur time.Duration) (res *result, err error) {
	res = newResult(e, w, true)
	m := res.Metrics
	// The named workload's own traffic: three fifths of the time untraced,
	// so that every workload's p99_ms has ten samples beyond it (serve-ddcres
	// sends 200 requests a second), the rest under span tracing.
	ownPlainLen := dur * 3 / 5
	ownTracedLen := dur - ownPlainLen

	st := &stack{}
	defer func() { err = errors.Join(err, st.close()) }()
	// Each rung's fixture is built just before the rung, so nothing a
	// later fixture runs in the background disturbs an earlier rung.
	t0 := time.Now()
	if st.lib, err = setupLib(e, true, true); err != nil {
		return nil, err
	}
	res.PhasesS["setup_lib"] = time.Since(t0).Seconds()
	m.put("hnsw.build_s", st.lib.buildS, "s")
	m.put("hnsw.graph_bytes", float64(st.lib.hn.GraphBytes()), "bytes")
	m.put("ddc.train_s", st.lib.trainS, "s")
	m.put("ddc.extra_bytes", float64(st.lib.res.ExtraBytes()), "bytes")
	bias := clockBias()
	st.lib.clockBias = time.Duration(bias)
	m.put("trace.clock_bias_ns", bias, "ns")
	t0 = time.Now()
	kernelRung(st.lib, m)
	comparatorRung(st.lib, res)
	res.PhasesS["rungs_kernel_comparator"] = time.Since(t0).Seconds()

	t0 = time.Now()
	sx, err := buildSharded(e)
	if err != nil {
		return nil, err
	}
	shardedRung(e, sx, res)
	if st.serve, err = startServer(e, sx); err != nil {
		return nil, err
	}
	if st.mixed, err = setupMixed(e); err != nil {
		return nil, err
	}
	st.mixed.observe()
	res.PhasesS["setup_sharded_rung_server_mixed"] = time.Since(t0).Seconds()

	// The rungs that replay a workload's traffic. The named workload's
	// rung is the longer one, and the only one with an untraced twin.
	var ownTraced, ownPlain phase
	var ownSpans []span
	for _, rung := range workloads {
		isOwn := rung.Name == w.Name
		fx, length := st.rung(rung)
		if length == 0 && !isOwn {
			continue // the comparator rung already walked this one
		}
		t0 = time.Now()
		if isOwn {
			length = max(ownTracedLen, length)
		}
		rec := newRecorder()
		ph := fx.drive(0, length, rec)
		res.count(ph.searches, ph.from)
		res.count(ph.mutations, ph.from)
		res.spans[rung.Name] = rec.spans
		switch rung.Kind {
		case "serve":
			serveMetrics(st.serve, ph, rec.spans, m)
		case "mixed":
			if err := mixedMetrics(st.mixed, ph, res); err != nil {
				return nil, err
			}
		}
		// The untraced twin runs after the traced phase, so the rung's
		// layer metrics come from a fixture in the same state — fresh —
		// whichever workload the run was asked for.
		if isOwn {
			ownTraced, ownSpans = ph, rec.spans
			ownPlain = fx.drive(0, max(ownPlainLen, length), nil)
			res.count(ownPlain.searches, ownPlain.from)
			res.count(ownPlain.mutations, ownPlain.from)
		}
		res.PhasesS["rung_"+rung.Name] = time.Since(t0).Seconds()
	}

	// The named workload: tracing overhead, and do the layers add up?
	traced := millis(ownTraced.searches, ownTraced.from)
	plain := millis(ownPlain.searches, ownPlain.from)
	res.Samples["own_traced"], res.Samples["own_untraced"] = len(traced), len(plain)
	if len(traced) == 0 || len(plain) == 0 {
		return res, fmt.Errorf("no successful searches in the traced phase, first error: %v", res.Errors)
	}
	m.put("trace.overhead_share", mean(traced)/mean(plain)-1, "ratio")
	m.put("p99_ms", percentile(sortedCopy(plain), 99), "ms")
	// Blocking times of one request tree add up to its root span, which
	// is the request itself, so the shares below add up to 1 by
	// construction: they say where the latency went, they do not check it.
	selfs := selfTimes(ownSpans)
	var selfSum float64
	for _, name := range spanNames {
		selfSum += selfs[name].blocking
	}
	for _, name := range spanNames {
		m.put("self_share."+name, selfs[name].blocking/selfSum, "ratio")
	}

	m.put("loadgen.fail_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	if err := res.tooManyFailures(); err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// rung returns the fixture that replays a workload's traffic on the
// stack, and how long it runs when it is not the named workload; 0 for
// the lib workloads, whose layers the comparator rung measures on a
// fixed pass over the queries.
func (st *stack) rung(w workloadSpec) (fixture, time.Duration) {
	p := st.lib.e.p
	switch w.Kind {
	case "serve":
		return st.serve, p.ServeRung
	case "mixed":
		return st.mixed, p.MixedRung
	}
	return &libRun{st.lib, w.Mode}, 0
}

// ---- kernels ----

var sink float32

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// kernelRung times the distance kernels on random pairs of base rows at
// the run's d, one PCA projection, and one memtable scan.
func kernelRung(f *libFixture, m metricSet) {
	e := f.e
	p := e.p
	rng := rand.New(rand.NewSource(e.seed + 3))
	a, b := make([]int, p.KernelCalls), make([]int, p.KernelCalls)
	for i := range a {
		a[i], b[i] = rng.Intn(p.N), rng.Intn(p.N)
	}
	m.put("vec.l2sq_ns", perCall(p.KernelCalls, func(i int) { sink += vec.L2Sq(e.base[a[i]], e.base[b[i]]) }), "ns")
	m.put("vec.dot_ns", perCall(p.KernelCalls, func(i int) { sink += vec.Dot(e.base[a[i]], e.base[b[i]]) }), "ns")
	flat := f.res.Rotated().Flat()
	block := resinfer.DefaultDeltaD
	m.put("vec.l2sq_range32_ns", perCall(p.KernelCalls, func(i int) {
		sink += vec.L2SqRangeFlat(e.base[a[i]], flat, b[i]*p.Dim, block, 2*block)
	}), "ns")
	m.put("vec.dot_range32_ns", perCall(p.KernelCalls, func(i int) {
		sink += vec.DotRangeFlat(e.base[a[i]], flat, b[i]*p.Dim, block, 2*block)
	}), "ns")

	model := f.res.Model()
	dst, cent := make([]float32, p.Dim), make([]float32, p.Dim)
	m.put("pca.project_us", perCall(len(e.queries), func(i int) {
		_ = model.ProjectInto(dst, e.queries[i], cent) // dimensions match by construction
	})/1e3, "us")

	mem := stream.NewMemtable(p.Dim)
	for i := 0; i < 256; i++ {
		mem.Add(i, e.pool[i])
	}
	rq := heap.NewResultQueue(p.K)
	m.put("stream.memtable_scan_us", perCall(len(e.queries), func(i int) {
		rq.Reset(p.K)
		mem.Scan(e.queries[i], false, rq)
	})/1e3, "us")
}

// ---- comparator under the graph walk, and the root Index above it ----

// evalTotals sums what the timed evaluator and the comparator's own
// counters saw over a run of queries.
type evalTotals struct {
	queries                        int
	stats                          core.Stats
	reset, compare, distance, walk time.Duration
	compares                       int64
	results                        [][]hnsw.Result // first pass over the queries, by query
}

// runTraced is the lib closed loop with the layers pulled apart: the
// benchmark's own graph walked through a timed evaluator, one span per
// layer per query. The comparator's thousands of calls per query are
// recorded as one span each for Compare and Distance, carrying their
// summed time.
func (f *libFixture) runTraced(mode resinfer.Mode, more func(int) bool, rec *recorder) ([]sample, evalTotals) {
	e := f.e
	p := e.p
	ev := &timedEvaluator{inner: f.comparator(mode).NewEvaluator(), bias: f.clockBias}
	tot := evalTotals{results: make([][]hnsw.Result, len(e.queries))}
	var items []hnsw.Result
	ns := make([]resinfer.Neighbor, 0, p.K)
	samples := closedLoop(more, func(i int) error {
		qi := e.order[i%len(e.order)]
		t0 := time.Now()
		if err := ev.Reset(e.queries[qi]); err != nil {
			return err
		}
		t1 := time.Now()
		var err error
		items, err = f.hn.SearchEval(ev, p.K, p.EfLib, p.N, items[:0])
		t2 := time.Now()
		if err != nil {
			return err
		}
		root := rec.add("lib.search", t0, t2, -1, i)
		rec.add("cmp.reset", t0, t0.Add(ev.reset), root, i)
		walk := rec.add("hnsw.walk", t1, t2, root, i)
		rec.add("cmp.compare", t1, t1.Add(ev.compare), walk, i)
		rec.add("cmp.distance", t1.Add(ev.compare), t1.Add(ev.compare+ev.distance), walk, i)

		tot.queries++
		tot.stats.Add(*ev.Stats())
		tot.reset += ev.reset
		tot.compare += ev.compare
		tot.distance += ev.distance
		tot.walk += t2.Sub(t1) - ev.compare - ev.distance
		tot.compares += ev.compares
		if tot.results[qi] == nil {
			tot.results[qi] = append([]hnsw.Result(nil), items...)
		}
		ns = ns[:0]
		for _, it := range items {
			ns = append(ns, resinfer.Neighbor{ID: it.ID, Distance: it.Dist})
		}
		return checkNeighbors(ns, p.K, p.N)
	})
	return samples, tot
}

// comparatorRung sends every query once through the timed evaluator,
// once through the bare evaluator and once through Index.SearchInto, in
// both modes. Their answers must agree; their times split a search into
// comparator, walk and session.
func comparatorRung(f *libFixture, res *result) {
	e := f.e
	p := e.p
	m := res.Metrics
	nq := len(e.queries)
	once := func(i int) bool { return i < nq }
	perQuery := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }
	searchUs := map[resinfer.Mode]float64{}

	for _, mode := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes} {
		rec := newRecorder()
		samples, tot := f.runTraced(mode, once, rec)
		res.count(samples, time.Time{})
		res.spans["comparator-"+string(mode)] = rec.spans
		n := tot.queries
		if n == 0 {
			continue
		}

		// The same queries through the bare evaluator over the own graph
		// and through the root Index, alternating which goes first so
		// neither always finds the rows already in cache. Their difference
		// is what the Index's session (pool, metric transform, result
		// conversion) adds to Reset + SearchEval. Allocations are counted
		// around the whole loop, which itself allocates nothing.
		ev := f.comparator(mode).NewEvaluator()
		var items []hnsw.Result
		var dst []resinfer.Neighbor
		var bare, index time.Duration
		var shared int
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < nq; i++ {
			qi := e.order[i]
			q := e.queries[qi]
			var err error
			for half := 0; half < 2; half++ {
				t0 := time.Now()
				if half == i%2 {
					if ev.Reset(q) == nil {
						items, _ = f.hn.SearchEval(ev, p.K, p.EfLib, p.N, items[:0])
					}
					bare += time.Since(t0)
				} else {
					dst, _, err = f.ix.SearchInto(dst[:0], q, p.K, mode, p.EfLib)
					index += time.Since(t0)
				}
			}
			res.Attempted++
			if err == nil {
				err = checkNeighbors(dst, p.K, p.N)
			}
			if err != nil {
				res.fail(fmt.Errorf("%s query %d: %w", mode, qi, err))
			}
			shared += overlap(dst, tot.results[qi])
		}
		runtime.ReadMemStats(&after)
		searchUs[mode] = perQuery(index, nq)
		res.Attempted++
		if agree := float64(shared) / float64(nq*p.K); agree < minAgreement {
			res.fail(fmt.Errorf("%s: Index.SearchInto and the walk over the benchmark's own graph share %.4f of their neighbours, want %.2f",
				mode, agree, minAgreement))
		}

		if mode == resinfer.Exact {
			m.put("core.exact_compare_ns", float64(tot.compare)/float64(tot.compares), "ns")
			m.put("resinfer.exact_search_us", searchUs[mode], "us")
			continue
		}
		m.put("ddc.reset_us", perQuery(tot.reset, n), "us")
		m.put("ddc.compare_ns", float64(tot.compare)/float64(tot.compares), "ns")
		m.put("ddc.compares_per_query", float64(tot.stats.Comparisons)/float64(n), "count")
		m.put("ddc.pruned_rate", tot.stats.PrunedRate(), "ratio")
		m.put("ddc.scan_rate", tot.stats.ScanRate(p.Dim), "ratio")
		m.put("ddc.exact_fallbacks_per_query", float64(tot.stats.ExactDistances)/float64(n), "count")
		m.put("vec.dims_scanned_per_query", float64(tot.stats.DimsScanned)/float64(n), "count")
		busy := tot.reset + tot.compare + tot.distance
		m.put("ddc.self_share", float64(busy)/float64(busy+tot.walk), "ratio")
		m.put("hnsw.walk_self_us", perQuery(tot.walk, n), "us")
		m.put("resinfer.search_us", searchUs[mode], "us")
		m.put("resinfer.session_overhead_us", searchUs[mode]-perQuery(bare, nq), "us")
		m.put("resinfer.allocs_per_search", float64(after.Mallocs-before.Mallocs)/float64(nq), "count")
	}
	if searchUs[resinfer.DDCRes] > 0 {
		m.put("ddc_vs_exact_qps_ratio", searchUs[resinfer.Exact]/searchUs[resinfer.DDCRes], "ratio")
	}
}

// minAgreement is the share of neighbours the root Index and the walk
// over the benchmark's own graph must have in common. hnsw.Build inserts
// from GOMAXPROCS goroutines, so two builds from one seed differ in a few
// edges and their answers in a few neighbours; a wrong seed, row order or
// comparator setting would differ in most.
const minAgreement = 0.98

// overlap counts the IDs present in both results.
func overlap(got []resinfer.Neighbor, own []hnsw.Result) int {
	n := 0
	for _, g := range got {
		for _, o := range own {
			if g.ID == o.ID {
				n++
				break
			}
		}
	}
	return n
}

// ---- ShardedIndex, called directly ----

// shardedRung calls ShardedIndex.SearchInto once per query with the
// public shard observer installed. It must run before the server is
// started: the server installs its own observer over this one.
func shardedRung(e *env, sx *resinfer.ShardedIndex, res *result) {
	p := e.p
	m := res.Metrics
	rec := newRecorder()
	var mu sync.Mutex // the observer runs on the fan-out's goroutines
	var probes []shardProbe
	sx.SetShardObserver(func(_ int, d time.Duration, _ resinfer.SearchStats) {
		now := time.Now()
		mu.Lock()
		probes = append(probes, shardProbe{now, d})
		mu.Unlock()
	})
	var dst []resinfer.Neighbor
	var sum, slowest time.Duration
	samples := closedLoop(func(i int) bool { return i < len(e.queries) }, func(i int) (err error) {
		probes = probes[:0]
		t0 := time.Now()
		dst, _, err = sx.SearchInto(dst[:0], e.queries[e.order[i]], p.K, resinfer.DDCRes, p.EfServe)
		root := rec.add("sharded.search", t0, time.Now(), -1, i)
		var worst time.Duration
		for _, pr := range probes {
			rec.add("shard", pr.end.Add(-pr.dur), pr.end, root, i)
			sum += pr.dur
			worst = max(worst, pr.dur)
		}
		slowest += worst
		if err != nil {
			return err
		}
		return checkNeighbors(dst, p.K, p.N)
	})
	res.count(samples, time.Time{})
	res.spans["sharded"] = rec.spans
	n := float64(len(samples))
	m.put("sharded.search_us", mean(millis(samples, time.Time{}))*1e3, "us")
	m.put("sharded.shard_sum_us", float64(sum)/1e3/n, "us")
	m.put("sharded.shard_max_us", float64(slowest)/1e3/n, "us")
	m.put("sharded.fan_merge_self_us", selfTimes(rec.spans)["sharded.search"].busy/1e3/n, "us")

	const batch = 8
	var batches int
	t0 := time.Now()
	for lo := 0; lo+batch <= len(e.queries); lo += batch {
		qs := make([][]float32, batch)
		for j := range qs {
			qs[j] = e.queries[e.order[lo+j]]
		}
		out, err := sx.SearchBatch(qs, p.K, resinfer.DDCRes, p.EfServe, 0)
		res.Attempted++
		if err != nil {
			res.fail(fmt.Errorf("SearchBatch: %w", err))
			continue
		}
		for _, br := range out {
			if br.Err == nil {
				br.Err = checkNeighbors(br.Neighbors, p.K, p.N)
			}
			if br.Err != nil {
				res.fail(fmt.Errorf("SearchBatch entry: %w", br.Err))
				break
			}
		}
		batches++
	}
	m.put("sharded.batch_us_per_query", float64(time.Since(t0))/1e3/float64(max(batches, 1)*batch), "us")
}

// ---- server ----

// serveMetrics reads the server rung: the client's round trip, the
// stages the server's own trace reports for each request, and the
// server's counters.
func serveMetrics(f *serveFixture, ph phase, spans []span, m metricSet) {
	var rtt []float64
	for _, s := range ph.searches {
		if s.err == nil {
			rtt = append(rtt, float64(s.done.Sub(s.sent))/1e3)
		}
	}
	m.put("server.http_rtt_us", mean(rtt), "us")
	m.put("loadgen.late_p99_ms", lateTail(ph.searches), "ms")

	stats := f.srv.Stats()
	m.put("server.batch_size_mean", stats.AvgBatchSize, "count")
	m.put("server.shed_total", float64(stats.Shed), "count")
	var bytes float64
	for _, b := range f.bodies {
		bytes += float64(len(b))
	}
	m.put("server.request_bytes", bytes/float64(len(f.bodies)), "bytes")

	// Mean duration of each stage the server's own trace reported, from
	// the spans the traced replies were turned into.
	sum := map[string]float64{}
	n := map[string]int{}
	for _, s := range spans {
		sum[s.Name] += float64(s.End-s.Start) / 1e3
		n[s.Name]++
	}
	for _, stage := range []string{"decode", "queue_wait", "fanout", "merge", "encode"} {
		name := "server." + stage
		m.put(name+"_us", sum[name]/float64(max(n[name], 1)), "us")
	}
	if rtt := sum["server.http"]; rtt > 0 {
		m.put("server.overhead_share", 1-sum["server.fanout"]/rtt, "ratio")
	}
}

// ---- MutableIndex under ingest ----

// mixedMetrics reads the ingest rung: mutation latencies, what the
// compaction and WAL observers saw, and how searches fared while a
// compaction was rebuilding a shard.
func mixedMetrics(f *mixedFixture, ph phase, res *result) error {
	m := res.Metrics
	p := f.e.p
	var add []float64
	for _, s := range ph.mutations {
		if s.err == nil {
			add = append(add, float64(s.done.Sub(s.sent))/1e3)
		}
	}
	m.put("mutable.add_us", mean(add), "us")
	ingest := sortedCopy(millis(ph.mutations, ph.from))
	m.put("mutable.ingest_p50_ms", percentile(ingest, 50), "ms")
	m.put("mutable.ingest_p99_ms", percentile(ingest, tailPercentile(len(ingest))), "ms")
	m.put("loadgen.mutator_late_p99_ms", lateTail(ph.mutations), "ms")

	// Compactions that ended inside the phase (the drive cleared what the
	// observers had seen before it; a late mutator can trigger one after).
	f.obsMu.Lock()
	var compactions []compaction
	for _, c := range f.compactions {
		if !c.end.Before(ph.from) && !c.end.After(ph.end) {
			compactions = append(compactions, c)
		}
	}
	walUs := mean(f.walAppends)
	f.obsMu.Unlock()
	var build float64
	var swapMax time.Duration
	for _, c := range compactions {
		build += float64(c.build) / 1e6
		swapMax = max(swapMax, c.swap)
	}
	m.put("mutable.compactions", float64(len(compactions)), "count")
	m.put("mutable.compact_build_ms", build/float64(max(len(compactions), 1)), "ms")
	m.put("mutable.swap_max_us", float64(swapMax)/1e3, "us")
	m.put("wal.append_us", walUs, "us")

	// A search ran "in compaction" when it overlapped a rebuild.
	var busy, quiet []float64
	for _, s := range ph.searches {
		if s.err != nil {
			continue
		}
		in := false
		for _, c := range compactions {
			if s.done.After(c.end.Add(-c.build-c.swap)) && s.sent.Before(c.end) {
				in = true
				break
			}
		}
		if ms := float64(s.latency()) / 1e6; in {
			busy = append(busy, ms)
		} else {
			quiet = append(quiet, ms)
		}
	}
	sort.Float64s(busy)
	sort.Float64s(quiet)
	res.Samples["search_in_compaction"], res.Samples["search_quiet"] = len(busy), len(quiet)
	m.put("mutable.search_p99_in_compaction_ms", percentile(busy, min(99, tailPercentile(len(busy)))), "ms")
	m.put("mutable.search_p99_quiet_ms", percentile(quiet, min(99, tailPercentile(len(quiet)))), "ms")

	// One more Add, with the newest log segment measured around it, gives
	// the bytes a record takes; an explicit sync gives the fsync cost the
	// interval policy keeps off the append path.
	segment := func() int64 {
		names, _ := filepath.Glob(filepath.Join(f.walDir, "wal-*.log"))
		var total int64
		for _, name := range names {
			if fi, err := os.Stat(name); err == nil {
				total += fi.Size()
			}
		}
		return total
	}
	var syncs []float64
	var recordBytes int64
	for i := 0; i < 5; i++ {
		before := segment()
		if err := f.apply(f.plan.draw(1)[0]); err != nil {
			return fmt.Errorf("probing WAL record size: %w", err)
		}
		t0 := time.Now()
		if err := f.mx.SyncWAL(); err != nil {
			return fmt.Errorf("SyncWAL: %w", err)
		}
		syncs = append(syncs, float64(time.Since(t0))/1e3)
		recordBytes = max(recordBytes, segment()-before)
	}
	sort.Float64s(syncs)
	m.put("wal.fsync_us", percentile(syncs, 50), "us")

	ms := f.mx.MutationStats()
	m.put("mutable.memtable_rows_end", float64(ms.MemtableRows), "count")
	var checkpoint int64
	if fi, err := os.Stat(filepath.Join(f.walDir, "checkpoint.strm")); err == nil {
		checkpoint = fi.Size()
	}
	written := float64(ms.Inserts)*float64(recordBytes) + float64(ms.WALCheckpoints)*float64(checkpoint)
	m.put("wal.bytes_per_user_byte", written/(float64(ms.Inserts)*float64(p.Dim)*4), "ratio")
	return nil
}

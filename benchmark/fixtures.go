package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"resinfer"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/hnsw"
	"resinfer/internal/server"
)

// phase is the traffic one drive call generated: every search and every
// mutation it attempted, warm-up included; from is where the measured
// part starts.
type phase struct {
	searches  []sample
	mutations []sample
	from, end time.Time
}

// fixture is a workload's set-up: what it serves from, and how its
// clients reach it.
type fixture interface {
	// drive generates the workload's traffic for warm + dur, recording
	// spans when rec is not nil.
	drive(warm, dur time.Duration, rec *recorder) phase
	// recall is recall@k of the workload's search path over every
	// query, against brute force over the rows live now.
	recall() (float64, error)
	close() error
}

func setupWorkload(e *env, w workloadSpec) (fixture, error) {
	switch w.Kind {
	case "lib":
		f, err := setupLib(e, w.Mode != resinfer.Exact, false)
		if err != nil {
			return nil, err
		}
		return &libRun{f, w.Mode}, nil
	case "serve":
		return setupServe(e)
	case "mixed":
		return setupMixed(e)
	}
	return nil, fmt.Errorf("workload %s has unknown kind %q", w.Name, w.Kind)
}

func deadlineAfter(t time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(t) }
}

// ---- lib: one resinfer.Index called directly ----

// libFixture is a single HNSW index. The layer pieces exist only in a
// traced run: the benchmark's own graph and comparators, built from the
// same rows and seed as ix, so a decorated evaluator can time the
// comparator inside the walk.
type libFixture struct {
	e  *env
	ix *resinfer.Index

	hn     *hnsw.Index
	exact  *core.Exact
	res    *ddc.Res
	buildS float64 // hnsw.Build
	trainS float64 // ddc.NewRes

	clockBias time.Duration // see timedEvaluator
}

// comparator returns the benchmark's own comparator for mode.
func (f *libFixture) comparator(mode resinfer.Mode) core.PooledDCO {
	if mode == resinfer.DDCRes {
		return f.res
	}
	return f.exact
}

func setupLib(e *env, withRes, withLayers bool) (*libFixture, error) {
	f := &libFixture{e: e}
	var err error
	if f.ix, err = resinfer.New(e.base, resinfer.HNSW, e.indexOptions()); err != nil {
		return nil, err
	}
	if withRes {
		if err := f.ix.Enable(resinfer.DDCRes, nil); err != nil {
			return nil, err
		}
	}
	if !withLayers {
		return f, nil
	}
	mat := (&dataset.Dataset{Data: e.base}).Matrix()
	t0 := time.Now()
	if f.hn, err = hnsw.Build(mat, hnsw.Config{M: e.p.M, EfConstruction: e.p.EfConstruction, Seed: e.seed}); err != nil {
		return nil, err
	}
	f.buildS = time.Since(t0).Seconds()
	if f.exact, err = core.NewExact(mat); err != nil {
		return nil, err
	}
	t0 = time.Now()
	f.res, err = ddc.NewRes(mat, ddc.ResConfig{
		Multiplier: resinfer.DefaultResMultiplier, InitD: resinfer.DefaultDeltaD,
		DeltaD: resinfer.DefaultDeltaD, Seed: e.seed,
	})
	f.trainS = time.Since(t0).Seconds()
	return f, err
}

// search is one library call plus the shape check every result gets.
func (f *libFixture) search(dst []resinfer.Neighbor, qi int, mode resinfer.Mode) ([]resinfer.Neighbor, error) {
	p := f.e.p
	dst, _, err := f.ix.SearchInto(dst[:0], f.e.queries[qi], p.K, mode, p.EfLib)
	if err != nil {
		return dst, err
	}
	return dst, checkNeighbors(dst, p.K, p.N)
}

// run is the closed loop of the lib workloads: one goroutine calling
// SearchInto with the queries in seed order.
func (f *libFixture) run(mode resinfer.Mode, more func(int) bool) []sample {
	var dst []resinfer.Neighbor
	return closedLoop(more, func(i int) (err error) {
		dst, err = f.search(dst, f.e.order[i%len(f.e.order)], mode)
		return err
	})
}

// libRun binds a libFixture to one comparator mode.
type libRun struct {
	*libFixture
	mode resinfer.Mode
}

func (r *libRun) drive(warm, dur time.Duration, rec *recorder) phase {
	start := time.Now()
	end := start.Add(warm + dur)
	var s []sample
	if rec == nil {
		s = r.run(r.mode, deadlineAfter(end))
	} else {
		s, _ = r.runTraced(r.mode, deadlineAfter(end), rec)
	}
	return phase{searches: s, from: start.Add(warm), end: time.Now()}
}

func (r *libRun) recall() (float64, error) {
	got := make([][]int, len(r.e.queries))
	var dst []resinfer.Neighbor
	for qi := range got {
		var err error
		if dst, err = r.search(dst, qi, r.mode); err != nil {
			return 0, fmt.Errorf("query %d: %w", qi, err)
		}
		got[qi] = neighborIDs(dst)
	}
	return dataset.Recall(got, r.e.truth, r.e.p.K), nil
}

func (r *libRun) close() error { return nil }

// ---- serve: internal/server over a 4-shard index, reached over HTTP ----

type serveFixture struct {
	e       *env
	srv     *server.Server
	url     string
	stop    func() error
	clients []*http.Client // one keep-alive connection each
	bodies  [][]byte       // POST /search body per query

	mu      sync.Mutex
	answers [][]int // IDs of the latest complete reply, per query
}

func setupServe(e *env) (*serveFixture, error) {
	sx, err := buildSharded(e)
	if err != nil {
		return nil, err
	}
	return startServer(e, sx)
}

func buildSharded(e *env) (*resinfer.ShardedIndex, error) {
	sx, err := resinfer.NewSharded(e.base, resinfer.HNSW, e.p.Shards, &resinfer.ShardOptions{Index: e.indexOptions()})
	if err != nil {
		return nil, err
	}
	return sx, sx.Enable(resinfer.DDCRes, nil)
}

// startServer serves sx with the server's default configuration on a
// loopback port and opens the connections the generator will use.
func startServer(e *env, sx *resinfer.ShardedIndex) (*serveFixture, error) {
	p := e.p
	f := &serveFixture{e: e, srv: server.New(sx, server.Config{})}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- f.srv.Serve(ctx, "127.0.0.1:0", func(addr string) { ready <- addr }) }()
	select {
	case addr := <-ready:
		f.url = "http://" + addr + "/search"
	case err := <-served:
		cancel()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	for c := 0; c < p.ServeConns; c++ {
		f.clients = append(f.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	f.stop = func() error {
		for _, c := range f.clients {
			c.CloseIdleConnections()
		}
		cancel()
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	f.bodies, f.answers = make([][]byte, len(e.queries)), make([][]int, len(e.queries))
	for qi, q := range e.queries {
		var err error
		f.bodies[qi], err = json.Marshal(map[string]any{
			"query": q, "k": p.K, "mode": string(resinfer.DDCRes), "budget": p.EfServe,
		})
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
	}
	return f, nil
}

// searchReply is the part of the server's /search response the
// benchmark reads; Trace is present when the request asked for it.
type searchReply struct {
	Neighbors []resinfer.Neighbor `json:"neighbors"` // keys "id" and "distance" match the fields case-insensitively
	Partial   bool                `json:"partial"`
	Trace     *struct {
		TotalUs int64 `json:"total_us"`
		Stages  []struct {
			Name    string `json:"name"`
			StartUs int64  `json:"start_us"`
			DurUs   int64  `json:"dur_us"`
		} `json:"stages"`
		Shards []struct {
			StartUs int64 `json:"start_us"`
			DurUs   int64 `json:"dur_us"`
		} `json:"shards"`
	} `json:"trace"`
}

// post sends query qi on connection conn and returns the reply once its
// body is read in full, with the time that happened. A reply that is not
// a 200 carrying a complete result is an error.
func (f *serveFixture) post(conn, qi int, traced bool) (*searchReply, time.Time, error) {
	req, err := http.NewRequest(http.MethodPost, f.url, bytes.NewReader(f.bodies[qi]))
	if err != nil {
		return nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set("X-Resinfer-Trace", "1")
	}
	resp, err := f.clients[conn].Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	done := time.Now()
	resp.Body.Close()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("HTTP %d: %.120s", resp.StatusCode, raw)
	}
	var reply searchReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, done, fmt.Errorf("malformed reply: %w", err)
	}
	if reply.Partial {
		return nil, done, errors.New("partial result")
	}
	if err := checkNeighbors(reply.Neighbors, f.e.p.K, f.e.p.N); err != nil {
		return nil, done, err
	}
	f.mu.Lock()
	f.answers[qi] = neighborIDs(reply.Neighbors)
	f.mu.Unlock()
	return &reply, done, nil
}

// drive is the open loop of serve-ddcres: requests fall due at a fixed
// rate whatever the server does, and are timed from their due time.
func (f *serveFixture) drive(warm, dur time.Duration, rec *recorder) phase {
	p := f.e.p
	interval := time.Duration(float64(time.Second) / p.ServeRate)
	n := int((warm + dur) / interval)
	start := time.Now().Add(interval)
	out := openLoop(start, interval, n, p.ServeConns, func(conn, i int) error {
		sent := time.Now()
		reply, done, err := f.post(conn, f.e.order[i%len(f.e.order)], rec != nil)
		if err == nil && rec != nil {
			due := start.Add(time.Duration(i) * interval)
			recordRequestSpans(rec, i, due, sent, done, reply)
		}
		return err
	})
	return phase{searches: out, from: start.Add(warm), end: time.Now()}
}

// recordRequestSpans turns one traced reply into spans: the request from
// its due time, the generator's lateness, the HTTP round trip, and under
// it the stages and shard probes the server reported. The server gives
// offsets from its own start of the request; that start is placed so the
// server's total sits in the middle of the round trip.
func recordRequestSpans(rec *recorder, i int, due, sent, done time.Time, reply *searchReply) {
	root := rec.add("request", due, done, -1, i)
	rec.add("loadgen.wait", due, sent, root, i)
	rtt := rec.add("server.http", sent, done, root, i)
	tr := reply.Trace
	if tr == nil {
		return
	}
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	origin := sent.Add((done.Sub(sent) - us(tr.TotalUs)) / 2)
	fanout := -1
	for _, st := range tr.Stages {
		id := rec.add("server."+st.Name, origin.Add(us(st.StartUs)), origin.Add(us(st.StartUs+st.DurUs)), rtt, i)
		if st.Name == "fanout" {
			fanout = id
		}
	}
	if fanout < 0 {
		return
	}
	for _, sh := range tr.Shards {
		rec.add("shard", origin.Add(us(sh.StartUs)), origin.Add(us(sh.StartUs+sh.DurUs)), fanout, i)
	}
}

// recall judges the replies the measured traffic already received: the
// index is immutable, so one reply per query says what the server
// answers. Only a query the traffic never reached is sent now.
func (f *serveFixture) recall() (float64, error) {
	for qi := range f.answers {
		if f.answers[qi] == nil {
			if _, _, err := f.post(0, qi, false); err != nil {
				return 0, fmt.Errorf("query %d: %w", qi, err)
			}
		}
	}
	return dataset.Recall(f.answers, f.e.truth, f.e.p.K), nil
}

func (f *serveFixture) close() error { return f.stop() }

// ---- mixed: a MutableIndex searched while it is written ----

type mixedFixture struct {
	e      *env
	mx     *resinfer.MutableIndex
	walDir string

	plan planner
	// rows mirrors the live set: every acknowledged mutation is applied
	// to it, so brute force over it is the truth searches are held to.
	// Only the mutator goroutine touches it while a drive runs.
	rows map[int][]float32
	// deletedAt[id] is when Delete(id) was acknowledged, in nanoseconds
	// since epoch (0: not deleted). A search that started later and still
	// returns id has failed.
	deletedAt []atomic.Int64
	epoch     time.Time
	issued    atomic.Int64 // Adds started: bounds the IDs a search may return

	// Filled by the program's observers; shard probes only while a traced
	// drive is running.
	tracing     atomic.Bool
	obsMu       sync.Mutex
	shardSpans  []shardProbe
	walAppend   time.Duration // of the mutation in flight
	walAppends  []float64     // µs
	compactions []compaction
}

type shardProbe struct {
	end time.Time
	dur time.Duration
}

type compaction struct {
	end         time.Time
	build, swap time.Duration
}

func setupMixed(e *env) (*mixedFixture, error) {
	p := e.p
	dir, err := os.MkdirTemp(e.scratch, "wal-")
	if err != nil {
		return nil, err
	}
	mx, err := resinfer.NewMutable(e.base, resinfer.HNSW, p.Shards, &resinfer.MutableOptions{
		Index: e.indexOptions(), CompactThreshold: p.CompactThreshold,
		WALDir: dir, WALSync: resinfer.WALSyncInterval(p.WALSync),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &mixedFixture{e: e, mx: mx, walDir: dir, plan: newPlanner(e),
		rows: make(map[int][]float32, len(e.base)), deletedAt: make([]atomic.Int64, len(e.base)),
		epoch: time.Now()}
	for id, r := range e.base {
		f.rows[id] = r
	}
	if err := mx.Enable(resinfer.DDCRes, nil); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// observe installs the program's public observers so a traced drive can
// see shard probes, WAL appends and compactions. The shard observer must
// be in place before the first search, so it is installed once, at
// set-up of a traced run.
func (f *mixedFixture) observe() {
	f.mx.SetShardObserver(func(_ int, d time.Duration, _ resinfer.SearchStats) {
		if !f.tracing.Load() {
			return
		}
		now := time.Now()
		f.obsMu.Lock()
		f.shardSpans = append(f.shardSpans, shardProbe{now, d})
		f.obsMu.Unlock()
	})
	f.mx.SetWALObserver(func(appendDur, _ time.Duration) {
		f.obsMu.Lock()
		f.walAppend = appendDur
		f.walAppends = append(f.walAppends, float64(appendDur)/1e3)
		f.obsMu.Unlock()
	})
	f.mx.SetCompactionObserver(func(ci resinfer.CompactionInfo) {
		now := time.Now()
		f.obsMu.Lock()
		f.compactions = append(f.compactions, compaction{now, ci.BuildDuration, ci.SwapDuration})
		f.obsMu.Unlock()
	})
}

func (f *mixedFixture) search(dst []resinfer.Neighbor, qi int) ([]resinfer.Neighbor, error) {
	p := f.e.p
	started := time.Since(f.epoch)
	dst, _, err := f.mx.SearchInto(dst[:0], f.e.queries[qi], p.K, resinfer.DDCRes, p.EfServe)
	if err != nil {
		return dst, err
	}
	// Read after the search: an Add counts itself before it starts, so
	// every row the search could have seen is inside the limit.
	limit := p.N + int(f.issued.Load())
	for _, n := range dst {
		if n.ID < len(f.deletedAt) {
			if at := f.deletedAt[n.ID].Load(); at != 0 && at < int64(started) {
				return dst, fmt.Errorf("ID %d returned %v after its Delete was acknowledged", n.ID, started-time.Duration(at))
			}
		}
	}
	return dst, checkNeighbors(dst, p.K, limit)
}

// apply executes one planned mutation and, once it is acknowledged,
// mirrors it.
func (f *mixedFixture) apply(op mutOp) error {
	switch op.kind {
	case opAdd:
		f.issued.Add(1)
		id, err := f.mx.Add(op.vec)
		if err != nil {
			return err
		}
		f.rows[id] = op.vec
	case opUpsert:
		if _, err := f.mx.Upsert(op.id, op.vec); err != nil {
			return err
		}
		f.rows[op.id] = op.vec
	case opDelete:
		ok, err := f.mx.Delete(op.id)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("Delete(%d): row was not live", op.id)
		}
		f.deletedAt[op.id].Store(int64(time.Since(f.epoch)))
		delete(f.rows, op.id)
	}
	return nil
}

var opNames = [...]string{opAdd: "mutable.add", opUpsert: "mutable.upsert", opDelete: "mutable.delete"}

// drive is mixed-ingest: one goroutine searches in a closed loop while
// another applies mutations on a fixed schedule.
func (f *mixedFixture) drive(warm, dur time.Duration, rec *recorder) phase {
	p := f.e.p
	interval := time.Duration(float64(time.Second) / p.MutateRate)
	ops := f.plan.draw(int((warm + dur) / interval))
	f.tracing.Store(rec != nil)
	defer f.tracing.Store(false)
	// What the observers saw belongs to one drive: a drive must not
	// report as its own the compactions and appends of an earlier one on
	// the same fixture.
	f.obsMu.Lock()
	f.compactions, f.walAppends = nil, nil
	f.obsMu.Unlock()
	start := time.Now().Add(interval)
	end := start.Add(warm + dur)

	var muts []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		muts = openLoop(start, interval, len(ops), 1, func(_, i int) error {
			t0 := time.Now()
			err := f.apply(ops[i])
			if rec != nil {
				t1 := time.Now()
				root := rec.add(opNames[ops[i].kind], t0, t1, -1, -1-i)
				f.obsMu.Lock()
				wal := f.walAppend
				f.obsMu.Unlock()
				rec.add("wal.append", t1.Add(-wal), t1, root, -1-i)
			}
			return err
		})
	}()

	var dst []resinfer.Neighbor
	searches := closedLoop(deadlineAfter(end), func(i int) (err error) {
		t0 := time.Now()
		dst, err = f.search(dst, f.e.order[i%len(f.e.order)])
		if rec != nil {
			root := rec.add("mutable.search", t0, time.Now(), -1, i)
			f.obsMu.Lock()
			for _, sp := range f.shardSpans {
				rec.add("shard", sp.end.Add(-sp.dur), sp.end, root, i)
			}
			f.shardSpans = f.shardSpans[:0]
			f.obsMu.Unlock()
		}
		return err
	})
	// The phase ends with the search loop: a mutator that runs late must
	// not stretch the time the searches are counted over.
	searchEnd := time.Now()
	wg.Wait()
	return phase{searches: searches, mutations: muts, from: start.Add(warm), end: searchEnd}
}

func (f *mixedFixture) recall() (float64, error) {
	ids := make([]int, 0, len(f.rows))
	live := make([][]float32, 0, len(f.rows))
	for id, r := range f.rows {
		ids = append(ids, id)
		live = append(live, r)
	}
	truth, err := dataset.BruteForceKNN(live, f.e.queries, f.e.p.K, 0)
	if err != nil {
		return 0, err
	}
	for _, t := range truth {
		for i, pos := range t {
			t[i] = ids[pos]
		}
	}
	got := make([][]int, len(f.e.queries))
	var dst []resinfer.Neighbor
	for qi := range got {
		if dst, err = f.search(dst, qi); err != nil {
			return 0, fmt.Errorf("query %d: %w", qi, err)
		}
		got[qi] = neighborIDs(dst)
	}
	return dataset.Recall(got, truth, f.e.p.K), nil
}

func (f *mixedFixture) close() error {
	f.mx.Close()
	return os.RemoveAll(f.walDir)
}

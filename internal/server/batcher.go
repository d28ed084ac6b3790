package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"resinfer"
	"resinfer/internal/obs"
)

// ErrServerClosed is returned to queries still queued when the server
// shuts down.
var ErrServerClosed = errors.New("server: closed")

// ErrOverloaded is returned to queries arriving while the admission
// queue is past its watermark; the handler maps it to HTTP 429 with a
// Retry-After hint. Shedding the excess immediately keeps the queries
// already admitted inside their deadlines, instead of letting the whole
// queue time out collectively.
var ErrOverloaded = errors.New("server: overloaded, queue past watermark")

// batchKey groups queued queries that can share one SearchBatch call:
// only queries with identical search parameters are batched together.
type batchKey struct {
	k      int
	mode   resinfer.Mode
	budget int
}

// queryResult is the outcome delivered back to a waiting /search handler.
type queryResult struct {
	neighbors []resinfer.Neighbor
	stats     resinfer.SearchStats
	err       error
}

// pendingQuery is one admitted /search request waiting in the queue.
type pendingQuery struct {
	q        []float32
	key      batchKey
	tr       *obs.Trace       // nil unless the request is being traced
	enq      time.Time        // when the query entered the queue
	deadline time.Time        // the request ctx's deadline (zero if none)
	resp     chan queryResult // buffered, capacity 1
}

// batcher is the micro-batching admission queue: single-query requests
// are collected for a short window (or until a size cap) and executed as
// one SearchBatch per parameter group, amortizing scheduling overhead
// under concurrent load while keeping tail latency bounded by the window.
type batcher struct {
	idx      Engine
	in       chan pendingQuery
	window   time.Duration
	maxSize  int
	maxDepth int           // shed watermark; <= 0 disables shedding
	workers  int           // workers handed to SearchBatchCtx
	sem      chan struct{} // shared concurrency limiter
	m        *metrics

	done     chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup
}

func newBatcher(idx Engine, window time.Duration, maxSize, maxDepth, workers int, sem chan struct{}, m *metrics) *batcher {
	// The queue buffer must cover the watermark: shedding is meant to be
	// the backpressure mechanism, not a blocking channel send.
	capacity := 4 * maxSize
	if maxDepth > capacity {
		capacity = maxDepth
	}
	b := &batcher{
		idx:      idx,
		in:       make(chan pendingQuery, capacity),
		window:   window,
		maxSize:  maxSize,
		maxDepth: maxDepth,
		workers:  workers,
		sem:      sem,
		m:        m,
		done:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// submit enqueues one query and waits for its result or ctx cancellation.
// A query arriving while the queue is at or past the watermark is shed
// with ErrOverloaded instead of being admitted into collective timeout.
func (b *batcher) submit(ctx context.Context, q []float32, key batchKey, tr *obs.Trace) queryResult {
	pq := pendingQuery{q: q, key: key, tr: tr, enq: time.Now(), resp: make(chan queryResult, 1)}
	if dl, ok := ctx.Deadline(); ok {
		pq.deadline = dl
	}
	select {
	case <-b.done:
		// Checked first: b.in is buffered, so a bare select could win the
		// send case after close() has already drained the queue, leaving
		// the query unanswered.
		return queryResult{err: ErrServerClosed}
	default:
	}
	if b.maxDepth > 0 && b.m.queueDepth.Load() >= int64(b.maxDepth) {
		return queryResult{err: ErrOverloaded}
	}
	select {
	case b.in <- pq:
		// The depth histogram samples at admission: it sees the queue as
		// arriving queries do, which is the distribution that matters for
		// sizing the window and the cap.
		b.m.queueHist.Observe(float64(b.m.queueDepth.Add(1)))
	case <-b.done:
		return queryResult{err: ErrServerClosed}
	case <-ctx.Done():
		return queryResult{err: ctx.Err()}
	}
	select {
	case r := <-pq.resp:
		return r
	case <-b.done:
		// Shutdown while waiting: an in-flight batch may still answer
		// within the drain grace period; otherwise fail fast instead of
		// sitting out the request timeout. The grace is derived from the
		// batch window — a query admitted just before shutdown may sit in
		// a collecting batch for up to one full window before it even
		// executes, so a fixed constant shorter than the window would
		// spuriously fail queries whose batch was still on its way.
		select {
		case r := <-pq.resp:
			return r
		case <-time.After(b.drainGrace()):
			return queryResult{err: ErrServerClosed}
		case <-ctx.Done():
			return queryResult{err: ctx.Err()}
		}
	case <-ctx.Done():
		// The executor will still write to the buffered channel; the
		// result is simply dropped.
		return queryResult{err: ctx.Err()}
	}
}

// drainGrace is how long a query admitted before shutdown waits for its
// in-flight batch to answer: one full collection window (the longest it
// can legitimately still be queued) plus a floor covering execution time.
func (b *batcher) drainGrace() time.Duration {
	const floor = 100 * time.Millisecond
	if b.window <= 0 {
		return floor
	}
	return b.window + floor
}

// close stops the collector and fails queries still waiting in the queue.
func (b *batcher) close() {
	b.closeOne.Do(func() { close(b.done) })
	b.wg.Wait()
	// A submit racing with shutdown may have enqueued after run()'s own
	// drain; sweep once more now that no batch will ever form.
	b.drainQueue()
}

// run collects queries into batches: the first arrival opens a window,
// and the batch executes when the window elapses or the size cap fills.
// Execution happens on a separate goroutine so collection never stalls
// behind a slow search.
func (b *batcher) run() {
	defer b.wg.Done()
	for {
		var first pendingQuery
		select {
		case first = <-b.in:
		case <-b.done:
			b.drainQueue()
			return
		}
		batch := []pendingQuery{first}
		timer := time.NewTimer(b.window)
	collect:
		for len(batch) < b.maxSize {
			select {
			case pq := <-b.in:
				batch = append(batch, pq)
			case <-timer.C:
				break collect
			case <-b.done:
				break collect
			}
		}
		timer.Stop()
		b.wg.Add(1)
		go b.execute(batch)
		select {
		case <-b.done:
			b.drainQueue()
			return
		default:
		}
	}
}

// drainQueue fails everything still queued at shutdown.
func (b *batcher) drainQueue() {
	for {
		select {
		case pq := <-b.in:
			b.m.queueDepth.Add(-1)
			pq.resp <- queryResult{err: ErrServerClosed}
		default:
			return
		}
	}
}

// execute groups a collected batch by search parameters and runs one
// SearchBatchCtx per group under the shared concurrency limiter.
func (b *batcher) execute(batch []pendingQuery) {
	defer b.wg.Done()
	b.sem <- struct{}{}
	defer func() { <-b.sem }()

	groups := map[batchKey][]int{}
	for i, pq := range batch {
		groups[pq.key] = append(groups[pq.key], i)
	}
	for key, members := range groups {
		queries := make([][]float32, len(members))
		traced := false
		for j, i := range members {
			queries[j] = batch[i].q
			if batch[i].tr != nil {
				traced = true
			}
		}
		// The queue wait ends here, as the group starts executing; every
		// member shares the group's size for the batch histograms.
		now := time.Now()
		for _, i := range members {
			pq := batch[i]
			b.m.queueWait.Observe(now.Sub(pq.enq).Seconds())
			pq.tr.End("queue_wait", pq.enq)
			pq.tr.SetBatchSize(len(members))
		}
		b.m.batchSizes.Observe(float64(len(members)))

		var traces []*obs.Trace
		if traced {
			traces = make([]*obs.Trace, len(members))
			for j, i := range members {
				traces[j] = batch[i].tr
			}
		}
		// The group executes under a detached context expiring at the
		// latest member deadline: one member's cancellation must not
		// abort its groupmates, but a stuck shard must not hold the
		// group past the point where anyone still wants the answer.
		// Members with earlier deadlines give up in submit on their own.
		gctx := context.Background()
		var cancel context.CancelFunc
		var maxDL time.Time
		bounded := true
		for _, i := range members {
			dl := batch[i].deadline
			if dl.IsZero() {
				bounded = false
				break
			}
			if dl.After(maxDL) {
				maxDL = dl
			}
		}
		if bounded {
			gctx, cancel = context.WithDeadline(context.Background(), maxDL)
		}
		results, err := b.idx.SearchBatchCtx(gctx, queries, key.k, key.mode, key.budget, b.workers, traces)
		if cancel != nil {
			cancel()
		}
		b.m.batches.Inc()
		b.m.batchedQueries.Add(int64(len(members)))
		if err != nil {
			for _, i := range members {
				b.m.queueDepth.Add(-1)
				batch[i].resp <- queryResult{err: err}
			}
			continue
		}
		for j, i := range members {
			r := results[j]
			b.m.queueDepth.Add(-1)
			batch[i].resp <- queryResult{neighbors: r.Neighbors, stats: r.Stats, err: r.Err}
		}
	}
}

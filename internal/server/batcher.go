package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
	ctx  context.Context // the request's context, deadline included
	q    []float32
	key  batchKey
	tr   *obs.Trace       // nil unless the request is being traced
	enq  time.Time        // when the query entered the queue
	resp chan queryResult // buffered, capacity 1

	// started is set by the executor as it takes the query out of the
	// queue. A query whose ctx ends before that is never searched; one
	// whose deadline fires after it still gets its group's answer.
	started atomic.Bool
}

// batcher is the admission queue every /search request passes through.
// Its collector takes the first queued query, waits for an execution
// slot, then takes whatever else queued meanwhile (up to a size cap)
// without waiting and runs the lot as one SearchBatchCtx per parameter
// group. A batch therefore forms from contention, never from a timer: an
// idle server runs each query at once, and queries share a call exactly
// when every slot is busy.
type batcher struct {
	idx      Engine
	in       chan *pendingQuery
	maxSize  int
	maxDepth int           // shed watermark; <= 0 disables shedding
	workers  int           // workers handed to SearchBatchCtx
	sem      chan struct{} // shared concurrency limiter
	m        *metrics

	done     chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup
}

func newBatcher(idx Engine, maxSize, maxDepth, workers int, sem chan struct{}, m *metrics) *batcher {
	// The queue buffer must cover the watermark: shedding is meant to be
	// the backpressure mechanism, not a blocking channel send.
	capacity := 4 * maxSize
	if maxDepth > capacity {
		capacity = maxDepth
	}
	b := &batcher{
		idx:      idx,
		in:       make(chan *pendingQuery, capacity),
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

// submit enqueues one query and waits for its result. A query arriving
// while the queue is at or past the watermark is shed with ErrOverloaded
// instead of being admitted into collective timeout. A query still
// queued when ctx ends fails with ctx's error and is never searched; once
// its group is executing, a deadline no longer cuts it loose — the group's
// fan-out expires with its last member's deadline, and what the shards
// had answered by then is the reply.
func (b *batcher) submit(ctx context.Context, q []float32, key batchKey, tr *obs.Trace) queryResult {
	pq := &pendingQuery{ctx: ctx, q: q, key: key, tr: tr, enq: time.Now(), resp: make(chan queryResult, 1)}
	select {
	case <-b.done:
		// Checked first: b.in is buffered, so a bare select could win the
		// send case after close() has already drained the queue.
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
		// sizing the cap and the watermark.
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
		// Shutdown: whoever holds pq answers it — the collector and close()
		// fail what is queued, a running group finishes — unless the send
		// above raced past close()'s last sweep, which this sweep covers.
		b.drainQueue()
		return <-pq.resp
	case <-ctx.Done():
		if pq.started.Load() && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return <-pq.resp
		}
		// Still queued, or the client hung up: the executor's answer, if
		// one comes, is dropped in the buffered channel.
		return queryResult{err: ctx.Err()}
	}
}

// close stops the collector and fails queries still waiting in the queue.
func (b *batcher) close() {
	b.closeOne.Do(func() { close(b.done) })
	b.wg.Wait()
	// A submit racing with shutdown may have enqueued after run()'s own
	// drain; sweep once more now that no batch will ever form.
	b.drainQueue()
}

// run is the collector. Execution happens on a separate goroutine, so the
// collector is already waiting for the next slot while a batch searches.
func (b *batcher) run() {
	defer b.wg.Done()
	for {
		var first *pendingQuery
		select {
		case first = <-b.in:
		case <-b.done:
			b.drainQueue()
			return
		}
		select {
		case b.sem <- struct{}{}:
		case <-b.done:
			b.answer(first, queryResult{err: ErrServerClosed})
			b.drainQueue()
			return
		}
		batch := []*pendingQuery{first}
	collect:
		for len(batch) < b.maxSize {
			select {
			case pq := <-b.in:
				batch = append(batch, pq)
			default:
				break collect
			}
		}
		b.wg.Add(1)
		go b.execute(batch)
	}
}

// answer delivers pq's outcome and takes it off the queue-depth gauge.
func (b *batcher) answer(pq *pendingQuery, r queryResult) {
	b.m.queueDepth.Add(-1)
	pq.resp <- r
}

// drainQueue fails everything still queued at shutdown.
func (b *batcher) drainQueue() {
	for {
		select {
		case pq := <-b.in:
			b.answer(pq, queryResult{err: ErrServerClosed})
		default:
			return
		}
	}
}

// execute groups a collected batch by search parameters and runs one
// SearchBatchCtx per group in the execution slot run acquired for it.
func (b *batcher) execute(batch []*pendingQuery) {
	defer b.wg.Done()
	defer func() { <-b.sem }()

	groups := map[batchKey][]*pendingQuery{}
	for _, pq := range batch {
		// started before the ctx check: a submit that saw its ctx end with
		// started unset has returned, and this check then sees the same
		// ended ctx — so an abandoned query is never searched and its
		// trace never touched.
		pq.started.Store(true)
		if err := pq.ctx.Err(); err != nil {
			b.answer(pq, queryResult{err: err})
			continue
		}
		groups[pq.key] = append(groups[pq.key], pq)
	}
	for key, members := range groups {
		// The group executes under a detached context expiring at the
		// latest member deadline: one member's cancellation must not
		// abort its groupmates, but a stuck shard must not hold the
		// group past the point where anyone still wants the answer.
		gctx := context.Background()
		var cancel context.CancelFunc
		var maxDL time.Time
		bounded := true
		queries := make([][]float32, len(members))
		var traces []*obs.Trace
		// The queue wait ends here, as the group starts executing; every
		// member shares the group's size for the batch histograms.
		now := time.Now()
		for j, pq := range members {
			queries[j] = pq.q
			if pq.tr != nil {
				if traces == nil {
					traces = make([]*obs.Trace, len(members))
				}
				traces[j] = pq.tr
			}
			b.m.queueWait.Observe(now.Sub(pq.enq).Seconds())
			pq.tr.End("queue_wait", pq.enq)
			pq.tr.SetBatchSize(len(members))
			dl, ok := pq.ctx.Deadline()
			bounded = bounded && ok
			if dl.After(maxDL) {
				maxDL = dl
			}
		}
		b.m.batchSizes.Observe(float64(len(members)))
		if bounded {
			gctx, cancel = context.WithDeadline(gctx, maxDL)
		}
		results, err := b.idx.SearchBatchCtx(gctx, queries, key.k, key.mode, key.budget, b.workers, traces)
		if cancel != nil {
			cancel()
		}
		b.m.batches.Inc()
		b.m.batchedQueries.Add(int64(len(members)))
		for j, pq := range members {
			if err != nil {
				b.answer(pq, queryResult{err: err})
				continue
			}
			r := results[j]
			b.answer(pq, queryResult{neighbors: r.Neighbors, stats: r.Stats, err: r.Err})
		}
	}
}

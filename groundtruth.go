package resinfer

import (
	"fmt"

	"resinfer/internal/heap"
	"resinfer/internal/vec"
)

// gtScratch is the pooled per-scan state of GroundTruthSearch: the
// bounded result queue and the admitted-ID → shard attribution map. Both
// are capacity-reused so steady-state ground-truth scans allocate nothing.
type gtScratch struct {
	rq      *heap.ResultQueue
	shardOf map[int]int
}

// GroundTruthSearch runs an exact brute-force top-k scan over the whole
// index — every base row of every shard plus every memtable row,
// tombstone- and shadow-aware — using the same SIMD flat-matrix kernels
// and merge keys as the serving path. It is the online ground-truth
// oracle for shadow quality sampling: its ranking is exactly what a
// perfect (recall-1.0) search would have served at the same instant.
//
// Results are appended to dst in ascending merge-key order (the serving
// order); shards receives, aligned with the returned neighbors, the
// shard each ground-truth neighbor currently lives in (memtable rows
// attribute to their owning shard). The int result is the number of
// rows compared. Each shard's segment lock is held for that shard's
// scan, so per-shard visibility is consistent with a concurrent search;
// shards are scanned sequentially, off the request path.
//
//resinfer:noalloc
func (sx *ShardedIndex) GroundTruthSearch(dst []Neighbor, shards []int, q []float32, k int) ([]Neighbor, []int, int, error) {
	if len(q) != sx.userDim {
		//resinfer:alloc-ok cold invalid-argument path
		return dst, shards, 0, fmt.Errorf("resinfer: query dim %d, index expects %d", len(q), sx.userDim)
	}
	if k <= 0 {
		//resinfer:alloc-ok cold invalid-argument path
		return dst, shards, 0, fmt.Errorf("resinfer: k must be positive, got %d", k)
	}
	gs := sx.gtPool.Get().(*gtScratch)
	defer sx.gtPool.Put(gs)
	gs.rq.Reset(k)
	for id := range gs.shardOf {
		delete(gs.shardOf, id)
	}

	// Base rows are scored by each shard's exact evaluator, primed as a
	// fan-out primes it (rotated once per distinct basis); memtable rows in
	// scan space, the internal query less InnerProduct's augmentation.
	fs := sx.fanPool.Get().(*fanScratch)
	defer sx.fanPool.Put(fs)
	if err := sx.begin(fs, q, k, Exact, 0); err != nil {
		return dst, shards, 0, err
	}
	qScan := fs.tq[:sx.userDim]
	ip := sx.metric == InnerProduct

	rq := gs.rq
	comparisons := 0
	for s := range sx.shards {
		var seg *shardSeg
		if sx.mut != nil {
			seg = sx.mut.segs[s]
			seg.mu.RLock()
		}
		base := sx.shards[s]
		gids := sx.globalID[s]
		sess, pool, err := base.acquire(Exact)
		if err == nil {
			if err = fs.prime(sess.ev); err != nil {
				pool.Put(sess)
			}
		}
		if err != nil {
			if seg != nil {
				seg.mu.RUnlock()
			}
			return dst, shards, 0, err
		}
		for i := 0; i < base.n; i++ {
			gid := gids[i]
			if seg != nil && (seg.dead.Has(gid) || seg.mem.Has(gid)) {
				continue
			}
			key := sess.ev.Distance(i)
			if ip {
				key = -base.Score(Neighbor{Distance: key}, q)
			}
			comparisons++
			if key < rq.Threshold() && rq.Push(gid, key) {
				gs.shardOf[gid] = s
			}
		}
		pool.Put(sess)
		if seg != nil {
			mem := seg.mem
			for i := 0; i < mem.Len(); i++ {
				row := mem.Vec(i)
				var key float32
				if ip {
					key = -vec.Dot(qScan, row)
				} else {
					key = vec.L2Sq(qScan, row)
				}
				comparisons++
				if key < rq.Threshold() && rq.Push(mem.ID(i), key) {
					gs.shardOf[mem.ID(i)] = s
				}
			}
			seg.mu.RUnlock()
		}
	}

	nres := rq.Len()
	start := len(dst)
	for i := 0; i < nres; i++ {
		dst = append(dst, Neighbor{})
		shards = append(shards, 0)
	}
	for i := nres - 1; i >= 0; i-- {
		it, _ := rq.PopMax()
		dst[start+i] = Neighbor{ID: it.ID, Distance: it.Dist}
		shards[start+i] = gs.shardOf[it.ID]
	}
	return dst, shards, comparisons, nil
}

package resinfer

import "fmt"

// GroundTruthSearch is the exact top-k over the whole index at this instant:
// every shard's probe (see probe) — the row mask hiding deleted and
// shadowed base rows, the memtable included — run in Exact over the
// shard's Flat view of its rows, then the served merge. It is the online
// ground-truth oracle for shadow quality sampling: its ranking is what a
// perfect (recall-1.0) search would have served, in the same merge keys,
// and truth and served answers come out of one probe. It calls the probe
// directly, so it hits no shard.search fault site and does not feed the
// shard observer.
//
// Results are appended to dst in ascending merge-key order (the serving
// order); shards receives, aligned with the returned neighbors, the shard
// whose probe answered each one (memtable rows attribute to their owning
// shard). The int result is the number of rows scanned: every base row plus
// every memtable row. Each shard's segment lock is held for that shard's
// probe, so per-shard visibility is consistent with a concurrent search;
// shards are probed sequentially, off the request path.
//
//resinfer:noalloc
func (sx *ShardedIndex) GroundTruthSearch(dst []Neighbor, shards []int, q []float32, k int) ([]Neighbor, []int, int, error) {
	if err := checkQuery(q, sx.userDim); err != nil {
		return dst, shards, 0, err
	}
	if k <= 0 {
		//resinfer:alloc-ok cold invalid-argument path
		return dst, shards, 0, fmt.Errorf("resinfer: k must be positive, got %d", k)
	}
	fs := sx.fanPool.Get().(*fanScratch)
	defer sx.fanPool.Put(fs)
	if err := sx.begin(fs, q, k, Exact, 0); err != nil {
		return dst, shards, 0, err
	}
	fs.flat = true
	for s := range sx.shards {
		sx.probe(s, &fs.outs[s], fs)
	}
	start := len(dst)
	dst, st, err := sx.merge(dst, fs, false)
	if err != nil {
		return dst, shards, 0, err
	}
	for _, n := range dst[start:] {
		shards = append(shards, fs.shardOf(n.ID))
	}
	return dst, shards, int(st.Comparisons), nil
}

// shardOf returns the first shard whose probe answered id, the one merge
// kept.
//
//resinfer:noalloc
func (fs *fanScratch) shardOf(id int) int {
	for s := range fs.outs {
		for _, n := range fs.outs[s].ns {
			if n.ID == id {
				return s
			}
		}
	}
	return -1
}

// Package stream provides the mutable segment of the streaming ingestion
// subsystem: an append-only Memtable holding freshly ingested vectors in a
// growing flat buffer. A shard pairs one with its immutable base index and
// a row mask over the base (core.RowMask) that hides the base rows deleted
// or shadowed by a memtable row; searches scan the memtable exactly (so
// recall on fresh vectors is perfect) and the base through its mask, and a
// background compactor periodically folds the memtable and the unmasked
// base rows into a rebuilt base index.
//
// The memtable is not durable on its own: crash durability comes from the
// write-ahead log (internal/wal) the owning index appends every mutation
// to before it reaches a memtable here, and replays on recovery.
//
// Memtable does not lock internally — the owning shard serializes access
// (searches under a read lock, mutations and compaction swaps under a
// write lock).
package stream

import (
	"fmt"
	"slices"

	"resinfer/internal/heap"
	"resinfer/internal/persist"
	"resinfer/internal/vec"
)

// Memtable is the append-only mutable segment of one shard: freshly
// ingested vectors in a flat row-major buffer, keyed by global ID. A
// second write to an ID already present overwrites its row in place, so
// the memtable holds at most one row per ID. Every write is stamped with
// a monotone sequence number; compaction snapshots the current sequence,
// rebuilds the base off-line, and finally retains only rows written after
// the snapshot (CompactAfter).
type Memtable struct {
	dim  int
	seq  uint64
	ids  []int
	seqs []uint64
	vecs []float32 // flat row-major, row i at [i*dim : (i+1)*dim]
	pos  map[int]int
}

// NewMemtable returns an empty memtable for vectors of the given
// dimensionality.
func NewMemtable(dim int) *Memtable {
	return &Memtable{dim: dim, pos: make(map[int]int)}
}

// Len returns the number of rows held.
func (m *Memtable) Len() int { return len(m.ids) }

// Dim returns the vector dimensionality.
func (m *Memtable) Dim() int { return m.dim }

// Has reports whether the memtable holds a row for id.
func (m *Memtable) Has(id int) bool {
	_, ok := m.pos[id]
	return ok
}

// ID returns the global ID of row i.
func (m *Memtable) ID(i int) int { return m.ids[i] }

// Vec returns a view of row i's vector.
func (m *Memtable) Vec(i int) []float32 {
	off := i * m.dim
	return m.vecs[off : off+m.dim : off+m.dim]
}

// Add writes (id, v): appends a new row, or overwrites in place when the
// ID is already present. It reports whether a row was appended (false on
// overwrite). The vector is copied.
func (m *Memtable) Add(id int, v []float32) bool {
	m.seq++
	if i, ok := m.pos[id]; ok {
		copy(m.vecs[i*m.dim:(i+1)*m.dim], v)
		m.seqs[i] = m.seq
		return false
	}
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.seqs = append(m.seqs, m.seq)
	m.vecs = append(m.vecs, v...)
	return true
}

// Remove deletes the row for id (swap-with-last), reporting whether it
// was present.
func (m *Memtable) Remove(id int) bool {
	i, ok := m.pos[id]
	if !ok {
		return false
	}
	last := len(m.ids) - 1
	if i != last {
		m.ids[i] = m.ids[last]
		m.seqs[i] = m.seqs[last]
		copy(m.vecs[i*m.dim:(i+1)*m.dim], m.vecs[last*m.dim:(last+1)*m.dim])
		m.pos[m.ids[i]] = i
	}
	m.ids = m.ids[:last]
	m.seqs = m.seqs[:last]
	m.vecs = m.vecs[:last*m.dim]
	delete(m.pos, id)
	return true
}

// Snapshot deep-copies the current contents: the IDs, their rows as one
// flat row-major buffer (row i at [i*Dim : (i+1)*Dim]), and the sequence
// number marking the snapshot point. Used by the compactor so the build can
// proceed off-lock while writes continue.
func (m *Memtable) Snapshot() (ids []int, vecs []float32, seq uint64) {
	return slices.Clone(m.ids), slices.Clone(m.vecs), m.seq
}

// CompactAfter returns a fresh memtable holding only the rows written
// after the snapshot sequence — the rows a finished compaction did not
// fold into the new base. The receiver is left unchanged.
func (m *Memtable) CompactAfter(seq uint64) *Memtable {
	out := NewMemtable(m.dim)
	out.seq = m.seq
	for i, s := range m.seqs {
		if s > seq {
			out.pos[m.ids[i]] = len(out.ids)
			out.ids = append(out.ids, m.ids[i])
			out.seqs = append(out.seqs, s)
			out.vecs = append(out.vecs, m.Vec(i)...)
		}
	}
	return out
}

// Scan exactly scores every memtable row against q and offers the
// (globalID, key) pairs to rq. With ip false the key is the squared L2
// distance; with ip true it is the negated inner product, matching the
// key-space the sharded merge ranks inner-product results in. It returns
// the number of comparisons performed (the row count).
//
//resinfer:noalloc
func (m *Memtable) Scan(q []float32, ip bool, rq *heap.ResultQueue) int {
	for i := range m.ids {
		base := i * m.dim
		var key float32
		if ip {
			key = -vec.DotFlat(q, m.vecs, base)
		} else {
			key = vec.L2SqFlat(q, m.vecs, base)
		}
		if key < rq.Threshold() {
			rq.Push(m.ids[i], key)
		}
	}
	return len(m.ids)
}

const memtableMagic = "RISTMEM1"

// Encode writes the memtable onto a persist stream.
func (m *Memtable) Encode(pw *persist.Writer) {
	pw.Magic(memtableMagic)
	pw.Int(m.dim)
	pw.U64(m.seq)
	pw.Ints(m.ids)
	pw.F32Block(m.vecs)
}

// DecodeMemtable reads a memtable written by Encode. Row sequence
// numbers are not persisted: a loaded memtable has no compaction in
// flight, so every row is stamped at the restored sequence.
func DecodeMemtable(pr *persist.Reader) (*Memtable, error) {
	pr.Magic(memtableMagic)
	dim := pr.Int()
	seq := pr.U64()
	ids := pr.Ints()
	vecs := pr.F32Block()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if dim <= 0 || len(vecs) != len(ids)*dim {
		return nil, fmt.Errorf("stream: corrupt memtable (%d ids, %d floats, dim %d)",
			len(ids), len(vecs), dim)
	}
	m := &Memtable{dim: dim, seq: seq, ids: ids, vecs: vecs,
		seqs: make([]uint64, len(ids)), pos: make(map[int]int, len(ids))}
	for i, id := range ids {
		if _, dup := m.pos[id]; dup {
			return nil, fmt.Errorf("stream: corrupt memtable (duplicate id %d)", id)
		}
		m.seqs[i] = seq
		m.pos[id] = i
	}
	return m, nil
}

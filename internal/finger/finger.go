// Package finger implements a FINGER-style fast inference accelerator for
// HNSW graphs (Chen et al., WWW 2023) — the graph-specific competitor the
// paper compares against in Exp-4. The idea: when expanding node c, the
// distance from the query q to each neighbor d decomposes over the basis
// given by c itself:
//
//	dist(q,d)² = dist(q,c)² + ‖d−c‖² − 2(t_q·t_d·‖c‖² + ⟨q_res, d_res⟩)
//
// where t_q, t_d are projection coefficients of q−c and d−c along c and
// the residual inner product ⟨q_res, d_res⟩ is estimated from signed
// random projection (SRP) signatures via the hamming-angle identity
// cos(π·h/L)·‖q_res‖·‖d_res‖. Everything about d is precomputed per edge;
// everything about q costs O(L) per visited node given a one-time O(L·D)
// query sketch — so each neighbor estimate costs a popcount instead of a
// D-dimensional scan.
//
// FINGER buys this speed with a much larger index (per-edge metadata plus
// per-node projections), which is exactly the tradeoff Exp-3/Exp-4
// measure.
package finger

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"

	"resinfer/internal/core"
	"resinfer/internal/heap"
	"resinfer/internal/hnsw"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Config controls the accelerator.
type Config struct {
	// L is the number of SRP signature bits (max 64, default 64).
	L int
	// ErrorFactor inflates the pruning threshold: a neighbor is skipped
	// when estimate > ErrorFactor·τ. Values slightly above 1 compensate
	// the SRP estimation noise; default 1.0.
	ErrorFactor float64
	Seed        int64
}

type edgeMeta struct {
	tD        float32 // projection coefficient of d−c along c
	dcNormSq  float32 // ‖d−c‖²
	resNormSq float32 // ‖d_res‖²
	sig       uint64  // SRP signature of d_res
}

// Finger wraps a built HNSW index and its rows with per-edge geometry.
type Finger struct {
	idx       *hnsw.Index
	data      *store.Matrix
	l         int
	errFactor float32
	rvs       [][]float32  // L random projection vectors
	nodeProj  [][]float32  // ⟨r_j, node⟩ per node (L floats)
	normSq    []float32    // ‖node‖² per node
	edges     [][]edgeMeta // aligned with idx.Neighbors(node, 0)
}

// Build precomputes edge metadata for every layer-0 edge of idx, the graph
// over the rows of data.
func Build(idx *hnsw.Index, data *store.Matrix, cfg Config) (*Finger, error) {
	if idx == nil || idx.Len() == 0 {
		return nil, errors.New("finger: empty index")
	}
	if data == nil || data.Rows() != idx.Len() || data.Dim() != idx.Dim() {
		return nil, errors.New("finger: the rows are not the graph's")
	}
	if cfg.L <= 0 || cfg.L > 64 {
		cfg.L = 64
	}
	if cfg.ErrorFactor <= 0 {
		cfg.ErrorFactor = 1.0
	}
	dim := idx.Dim()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Finger{
		idx:       idx,
		data:      data,
		l:         cfg.L,
		errFactor: float32(cfg.ErrorFactor),
		rvs:       make([][]float32, cfg.L),
		nodeProj:  make([][]float32, idx.Len()),
		normSq:    make([]float32, idx.Len()),
		edges:     make([][]edgeMeta, idx.Len()),
	}
	for j := range f.rvs {
		rv := make([]float32, dim)
		for i := range rv {
			rv[i] = float32(rng.NormFloat64())
		}
		f.rvs[j] = rv
	}
	for n := 0; n < data.Rows(); n++ {
		row := data.Row(n)
		f.normSq[n] = vec.NormSq(row)
		proj := make([]float32, cfg.L)
		for j, rv := range f.rvs {
			proj[j] = vec.Dot(rv, row)
		}
		f.nodeProj[n] = proj
	}
	for n := 0; n < data.Rows(); n++ {
		nbs := idx.Neighbors(int32(n), 0)
		metas := make([]edgeMeta, len(nbs))
		c := data.Row(n)
		cNormSq := f.normSq[n]
		for i, nb := range nbs {
			d := data.Row(int(nb))
			dcNormSq := vec.L2Sq(c, d)
			var tD float32
			if cNormSq > 0 {
				// ⟨d−c, c⟩ = ⟨d,c⟩ − ‖c‖².
				tD = (vec.Dot(d, c) - cNormSq) / cNormSq
			}
			resNormSq := dcNormSq - tD*tD*cNormSq
			if resNormSq < 0 {
				resNormSq = 0
			}
			var sig uint64
			for j := 0; j < cfg.L; j++ {
				// ⟨r_j, d_res⟩ = ⟨r_j,d⟩ − (1+tD)·⟨r_j,c⟩.
				if f.nodeProj[nb][j]-(1+tD)*f.nodeProj[n][j] > 0 {
					sig |= 1 << uint(j)
				}
			}
			metas[i] = edgeMeta{tD: tD, dcNormSq: dcNormSq, resNormSq: resNormSq, sig: sig}
		}
		f.edges[n] = metas
	}
	return f, nil
}

// ExtraBytes reports the accelerator's memory: per-edge metadata, per-node
// projections and norms, and the random vectors.
func (f *Finger) ExtraBytes() int64 {
	var edges int64
	for _, e := range f.edges {
		edges += int64(len(e)) * (4 + 4 + 4 + 8)
	}
	perNode := int64(f.idx.Len()) * int64(f.l*4+4)
	rvs := int64(f.l) * int64(f.idx.Dim()) * 4
	return edges + perNode + rvs
}

// Search runs the layer-0 beam search with FINGER estimates, at beam
// width ef clamped up to k and down to the point count: each neighbor's
// distance is first approximated from edge metadata; only candidates whose
// estimate passes the beam threshold get an exact distance.
func (f *Finger) Search(q []float32, k, ef int) ([]hnsw.Result, core.Stats, error) {
	if k <= 0 {
		return nil, core.Stats{}, errors.New("finger: k must be positive")
	}
	ef = min(max(ef, k), f.idx.Len())
	var stats core.Stats
	idx, data := f.idx, f.data
	dim := idx.Dim()
	qNormSq := vec.NormSq(q)
	// Per-query sketch: ⟨r_j, q⟩ for all j.
	qProj := make([]float32, f.l)
	for j, rv := range f.rvs {
		qProj[j] = vec.Dot(rv, q)
	}

	// Upper layers: exact greedy descent.
	ep := idx.Entry()
	curDist := vec.L2Sq(q, data.Row(int(ep)))
	stats.DimsScanned += int64(dim)
	stats.ExactDistances++
	for l := idx.MaxLevel(); l > 0; l-- {
		for {
			improved := false
			for _, nb := range idx.Neighbors(ep, l) {
				d := vec.L2Sq(q, data.Row(int(nb)))
				stats.DimsScanned += int64(dim)
				stats.ExactDistances++
				if d < curDist {
					curDist, ep, improved = d, nb, true
				}
			}
			if !improved {
				break
			}
		}
	}

	visited := make([]bool, idx.Len())
	visited[ep] = true
	var w heap.Beam
	w.Reset(ef)
	w.Push(int(ep), curDist)
	invL := float32(math.Pi) / float32(f.l)
	for c, ok := w.Pop(); ok; c, ok = w.Pop() {
		cid := c.ID
		distQC := c.Dist
		cNormSq := f.normSq[cid]
		// t_q and the query residual relative to this center.
		var tQ float32
		if cNormSq > 0 {
			qDotC := (qNormSq + cNormSq - distQC) / 2
			tQ = (qDotC - cNormSq) / cNormSq
		}
		qResNormSq := distQC - tQ*tQ*cNormSq
		if qResNormSq < 0 {
			qResNormSq = 0
		}
		var qSig uint64
		projC := f.nodeProj[cid]
		for j := 0; j < f.l; j++ {
			if qProj[j]-(1+tQ)*projC[j] > 0 {
				qSig |= 1 << uint(j)
			}
		}
		qResNorm := float32(math.Sqrt(float64(qResNormSq)))

		nbs := idx.Neighbors(int32(cid), 0)
		metas := f.edges[cid]
		tau := w.Threshold()
		for i, nb := range nbs {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			m := metas[i]
			stats.Comparisons++
			// Estimate dist(q, d)² from edge geometry.
			h := bits.OnesCount64(qSig ^ m.sig)
			cosTheta := float32(math.Cos(float64(invL * float32(h))))
			resIP := cosTheta * qResNorm * float32(math.Sqrt(float64(m.resNormSq)))
			est := distQC + m.dcNormSq - 2*(tQ*m.tD*cNormSq+resIP)
			if est < 0 {
				est = 0
			}
			if !math.IsInf(float64(tau), 1) && est > f.errFactor*tau {
				stats.Pruned++
				continue
			}
			d := vec.L2Sq(q, data.Row(int(nb)))
			stats.DimsScanned += int64(dim)
			stats.ExactDistances++
			if w.Push(int(nb), d) {
				tau = w.Threshold()
			}
		}
	}
	all := w.AppendSorted(nil)
	return all[:min(k, len(all))], stats, nil
}

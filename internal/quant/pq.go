// Package quant implements Product Quantization (PQ) and Optimized Product
// Quantization (OPQ) — the quantization-based approximate distances of §II-B
// and §V-B of the paper. PQ splits the vector into M subspaces, quantizes
// each against a learned codebook, and computes query-to-code asymmetric
// distances with per-query lookup tables (m table lookups per distance).
// OPQ additionally learns an orthogonal rotation minimizing quantization
// error via alternating PQ training and a Procrustes solve.
package quant

import (
	"errors"
	"fmt"
	"math/rand"

	"resinfer/internal/kmeans"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// PQConfig controls product-quantizer training.
type PQConfig struct {
	M     int // number of subspaces (required, >= 1)
	Nbits int // bits per code; centroids per subspace = 1<<Nbits; default 8, max 8
	// TrainIters bounds the k-means iterations per subspace; default 20.
	TrainIters int
	Seed       int64
}

// PQ is a trained product quantizer.
type PQ struct {
	Dim    int
	M      int
	Nbits  int
	K      int   // centroids per subspace = 1 << Nbits
	Bounds []int // len M+1; subspace m covers dims [Bounds[m], Bounds[m+1])
	// Codebooks[m][k] is the k-th centroid of subspace m (length of the
	// subspace).
	Codebooks [][][]float32
}

// TrainPQ fits a product quantizer on the rows of data.
func TrainPQ(data *store.Matrix, cfg PQConfig) (*PQ, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("quant: empty training data")
	}
	d := data.Dim()
	if cfg.M < 1 || cfg.M > d {
		return nil, fmt.Errorf("quant: M=%d invalid for dim %d", cfg.M, d)
	}
	if cfg.Nbits == 0 {
		cfg.Nbits = 8
	}
	if cfg.Nbits < 1 || cfg.Nbits > 8 {
		return nil, fmt.Errorf("quant: Nbits=%d outside [1,8]", cfg.Nbits)
	}
	if cfg.TrainIters <= 0 {
		cfg.TrainIters = 20
	}
	k := 1 << cfg.Nbits
	if k > data.Rows() {
		return nil, fmt.Errorf("quant: %d centroids exceed %d training rows", k, data.Rows())
	}
	pq := &PQ{
		Dim:       d,
		M:         cfg.M,
		Nbits:     cfg.Nbits,
		K:         k,
		Bounds:    subspaceBounds(d, cfg.M),
		Codebooks: make([][][]float32, cfg.M),
	}
	for m := 0; m < cfg.M; m++ {
		lo, hi := pq.Bounds[m], pq.Bounds[m+1]
		sub, err := store.New(data.Rows(), hi-lo)
		if err != nil {
			return nil, err
		}
		for i := 0; i < data.Rows(); i++ {
			sub.SetRow(i, data.Row(i)[lo:hi])
		}
		res, err := kmeans.Train(sub, kmeans.Config{
			K:        k,
			MaxIters: cfg.TrainIters,
			Seed:     cfg.Seed + int64(m)*7919,
		})
		if err != nil {
			return nil, fmt.Errorf("quant: subspace %d: %w", m, err)
		}
		pq.Codebooks[m] = res.Centroids.ToRows()
	}
	return pq, nil
}

// subspaceBounds splits d dimensions into m contiguous ranges whose sizes
// differ by at most one, so dimensions not divisible by M still work.
func subspaceBounds(d, m int) []int {
	bounds := make([]int, m+1)
	base, rem := d/m, d%m
	for i := 0; i < m; i++ {
		size := base
		if i < rem {
			size++
		}
		bounds[i+1] = bounds[i] + size
	}
	return bounds
}

// EncodeInto quantizes x into code (length M), allocating nothing.
func (pq *PQ) EncodeInto(code []byte, x []float32) error {
	if len(x) != pq.Dim {
		return errors.New("quant: dimension mismatch in EncodeInto")
	}
	if len(code) != pq.M {
		return errors.New("quant: code length mismatch in EncodeInto")
	}
	for m := 0; m < pq.M; m++ {
		lo, hi := pq.Bounds[m], pq.Bounds[m+1]
		best, _ := kmeans.NearestCentroidRows(pq.Codebooks[m], x[lo:hi])
		code[m] = byte(best)
	}
	return nil
}

// EncodeAll quantizes every row of data, returning a flat code array of
// data.Rows()*M bytes (row i at codes[i*M:(i+1)*M]).
func (pq *PQ) EncodeAll(data *store.Matrix) ([]byte, error) {
	codes := make([]byte, data.Rows()*pq.M)
	for i := 0; i < data.Rows(); i++ {
		if err := pq.EncodeInto(codes[i*pq.M:(i+1)*pq.M], data.Row(i)); err != nil {
			return nil, err
		}
	}
	return codes, nil
}

// DecodeInto reconstructs the vector represented by code into out (length
// Dim), allocating nothing.
func (pq *PQ) DecodeInto(out []float32, code []byte) error {
	if len(code) != pq.M {
		return errors.New("quant: code length mismatch in DecodeInto")
	}
	if len(out) != pq.Dim {
		return errors.New("quant: output length mismatch in DecodeInto")
	}
	for m := 0; m < pq.M; m++ {
		lo := pq.Bounds[m]
		copy(out[lo:pq.Bounds[m+1]], pq.Codebooks[m][code[m]])
	}
	return nil
}

// LUT is a per-query lookup table of squared distances from the query's
// subvectors to every centroid: LUT[m*K+k] = ||q_m - c_{m,k}||².
type LUT struct {
	M, K int
	Tab  []float32
}

// BuildLUT computes the asymmetric-distance lookup table for query q.
// Building costs O(D * K); each subsequent distance costs M lookups.
func (pq *PQ) BuildLUT(q []float32) (*LUT, error) {
	lut := &LUT{}
	if err := pq.BuildLUTInto(lut, q); err != nil {
		return nil, err
	}
	return lut, nil
}

// BuildLUTInto fills lut for query q, reusing lut.Tab when it is already
// large enough — the allocation-free path for pooled evaluators.
func (pq *PQ) BuildLUTInto(lut *LUT, q []float32) error {
	if len(q) != pq.Dim {
		return errors.New("quant: dimension mismatch in BuildLUT")
	}
	lut.M, lut.K = pq.M, pq.K
	if cap(lut.Tab) < pq.M*pq.K {
		lut.Tab = make([]float32, pq.M*pq.K)
	}
	lut.Tab = lut.Tab[:pq.M*pq.K]
	for m := 0; m < pq.M; m++ {
		lo, hi := pq.Bounds[m], pq.Bounds[m+1]
		qm := q[lo:hi]
		base := m * pq.K
		for k, c := range pq.Codebooks[m] {
			lut.Tab[base+k] = vec.L2Sq(qm, c)
		}
	}
	return nil
}

// Distance returns the asymmetric distance of the point whose codes are
// given, using the query's lookup table.
func (l *LUT) Distance(code []byte) float32 {
	var s float32
	for m, c := range code {
		s += l.Tab[m*l.K+int(c)]
	}
	return s
}

// CodeBytes returns the storage in bytes for n encoded points: the paper's
// n·M·nbits bits (§VI-B).
func (pq *PQ) CodeBytes(n int) int {
	return n * pq.M * pq.Nbits / 8
}

// randPerm is exposed for deterministic subsampling by OPQ training.
func randPerm(n, k int, rng *rand.Rand) []int {
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Perm(n)[:k]
}

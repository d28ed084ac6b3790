package quant

import (
	"errors"

	"resinfer/internal/persist"
	"resinfer/internal/store"
)

const (
	pqMagic  = "RIPQ1"
	opqMagic = "RIOPQ2" // version 2: the rotation in float32
)

// EncodeTo writes the product quantizer to w.
func (pq *PQ) EncodeTo(w *persist.Writer) {
	w.Magic(pqMagic)
	w.Int(pq.Dim)
	w.Int(pq.M)
	w.Int(pq.Nbits)
	w.Int(pq.K)
	w.Ints(pq.Bounds)
	w.Int(len(pq.Codebooks))
	for _, cb := range pq.Codebooks {
		w.F32Mat(cb)
	}
}

// DecodePQ reads a product quantizer written by EncodeTo.
func DecodePQ(r *persist.Reader) (*PQ, error) {
	r.Magic(pqMagic)
	pq := &PQ{
		Dim:    r.Int(),
		M:      r.Int(),
		Nbits:  r.Int(),
		K:      r.Int(),
		Bounds: r.Ints(),
	}
	nb := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Bounds has arrived in full, so M+1 == len(Bounds) ties the codebook
	// count to bytes actually read before it sizes anything.
	if pq.Dim <= 0 || pq.M <= 0 || pq.M != nb || len(pq.Bounds) != pq.M+1 ||
		pq.Bounds[0] != 0 || pq.Bounds[pq.M] != pq.Dim ||
		pq.Nbits < 1 || pq.Nbits > 8 || pq.K != 1<<pq.Nbits {
		return nil, errors.New("quant: corrupt encoded PQ")
	}
	pq.Codebooks = make([][][]float32, nb)
	for i := range pq.Codebooks {
		pq.Codebooks[i] = r.F32Mat()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Encode and BuildLUT slice a vector by Bounds and hand each piece to a
	// distance kernel next to a centroid: the widths must be positive (so
	// Bounds ascends from 0 to Dim) and every centroid must match its own.
	for m, cb := range pq.Codebooks {
		width := pq.Bounds[m+1] - pq.Bounds[m]
		if width <= 0 || len(cb) != pq.K {
			return nil, errors.New("quant: corrupt codebook size")
		}
		for _, c := range cb {
			if len(c) != width {
				return nil, errors.New("quant: corrupt centroid width")
			}
		}
	}
	return pq, nil
}

// EncodeTo writes the OPQ (rotation + PQ) to w.
func (o *OPQ) EncodeTo(w *persist.Writer) {
	w.Magic(opqMagic)
	o.Rotation.Encode(w)
	o.PQ.EncodeTo(w)
}

// DecodeOPQ reads an OPQ written by EncodeTo.
func DecodeOPQ(r *persist.Reader) (*OPQ, error) {
	r.Magic(opqMagic)
	rot, err := store.Decode(r)
	if err != nil {
		return nil, err
	}
	pq, err := DecodePQ(r)
	if err != nil {
		return nil, err
	}
	if rot.Rows() != pq.Dim || rot.Dim() != pq.Dim {
		return nil, errors.New("quant: OPQ rotation/PQ dimension mismatch")
	}
	return &OPQ{Rotation: rot, PQ: pq}, nil
}

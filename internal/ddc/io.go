package ddc

import (
	"errors"

	"resinfer/internal/learn"
	"resinfer/internal/pca"
	"resinfer/internal/persist"
	"resinfer/internal/quant"
	"resinfer/internal/store"
)

// Version 2 of the comparator streams stores vector payloads as flat
// row-major matrix blocks (store.Matrix) instead of per-row slices.
const (
	resMagic    = "RIRES2"
	pcaDCOMagic = "RIDPC2"
	opqDCOMagic = "RIDOQ2"
)

// Encode writes the DDCres comparator (PCA model, rotated vectors, norms,
// tuning) onto an existing persist stream.
func (r *Res) Encode(pw *persist.Writer) {
	pw.Magic(resMagic)
	r.model.Encode(pw)
	r.rotated.Encode(pw)
	pw.F32s(r.norms)
	pw.F64(float64(r.m))
	pw.Int(r.initD)
	pw.Int(r.deltaD)
}

// DecodeRes reads a DDCres comparator previously written by Encode.
func DecodeRes(pr *persist.Reader) (*Res, error) {
	pr.Magic(resMagic)
	model, err := pca.Decode(pr)
	if err != nil {
		return nil, err
	}
	rotated, err := store.Decode(pr)
	if err != nil {
		return nil, err
	}
	r := &Res{
		model:   model,
		dim:     model.Dim,
		rotated: rotated,
	}
	r.norms = pr.F32s()
	r.m = float32(pr.F64())
	r.initD = pr.Int()
	r.deltaD = pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if rotated.Dim() != r.dim || len(r.norms) != rotated.Rows() ||
		r.initD <= 0 || r.initD > r.dim || r.deltaD <= 0 || r.m <= 0 {
		return nil, errors.New("ddc: corrupt encoded Res")
	}
	return r, nil
}

// Encode writes the DDCpca comparator onto an existing persist stream.
func (p *PCADCO) Encode(pw *persist.Writer) {
	pw.Magic(pcaDCOMagic)
	p.model.Encode(pw)
	p.rotated.Encode(pw)
	pw.Ints(p.levels)
	pw.Int(len(p.classifiers))
	for _, c := range p.classifiers {
		c.Encode(pw)
	}
}

// DecodePCA reads a DDCpca comparator previously written by Encode.
func DecodePCA(pr *persist.Reader) (*PCADCO, error) {
	pr.Magic(pcaDCOMagic)
	model, err := pca.Decode(pr)
	if err != nil {
		return nil, err
	}
	rotated, err := store.Decode(pr)
	if err != nil {
		return nil, err
	}
	p := &PCADCO{
		model:   model,
		dim:     model.Dim,
		rotated: rotated,
		levels:  pr.Ints(),
	}
	nc := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if nc != len(p.levels) || nc == 0 {
		return nil, errors.New("ddc: corrupt classifier count")
	}
	p.classifiers = make([]*learn.Classifier, nc)
	for i := range p.classifiers {
		c, err := learn.Decode(pr)
		if err != nil {
			return nil, err
		}
		if len(c.W) != 2 { // Compare scores (partial distance, tau)
			return nil, errors.New("ddc: corrupt classifier width")
		}
		p.classifiers[i] = c
	}
	if rotated.Dim() != p.dim {
		return nil, errors.New("ddc: corrupt encoded PCADCO")
	}
	for _, l := range p.levels {
		if l <= 0 || l >= p.dim {
			return nil, errors.New("ddc: corrupt level")
		}
	}
	return p, nil
}

// Encode writes the DDCopq comparator onto an existing persist stream.
// The original vectors are REQUIRED at decode time (they are owned by the
// caller / the index, not duplicated into the stream).
func (o *OPQDCO) Encode(pw *persist.Writer) {
	pw.Magic(opqDCOMagic)
	pw.Int(o.dim)
	pw.Bool(o.useResidual)
	o.opq.EncodeTo(pw)
	pw.Bytes(o.codes)
	pw.F32s(o.resNorms)
	o.clf.Encode(pw)
}

// DecodeOPQ reads a DDCopq comparator previously written by Encode,
// rebinding it to the given original vectors (used for exact fallbacks).
func DecodeOPQ(pr *persist.Reader, data *store.Matrix) (*OPQDCO, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("ddc: DecodeOPQ needs the original vectors")
	}
	pr.Magic(opqDCOMagic)
	o := &OPQDCO{
		data:        data,
		dim:         pr.Int(),
		useResidual: pr.Bool(),
	}
	opq, err := quant.DecodeOPQ(pr)
	if err != nil {
		return nil, err
	}
	o.opq = opq
	o.codes = pr.Bytes()
	o.resNorms = pr.F32s()
	clf, err := learn.Decode(pr)
	if err != nil {
		return nil, err
	}
	o.clf = clf
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if o.dim != data.Dim() || opq.PQ.Dim != o.dim || len(o.codes) != data.Rows()*opq.PQ.M ||
		len(o.resNorms) != data.Rows() {
		return nil, errors.New("ddc: encoded OPQDCO does not match the data")
	}
	features := 2 // Compare scores (approximate distance, tau[, residual norm])
	if o.useResidual {
		features = 3
	}
	if len(clf.W) != features {
		return nil, errors.New("ddc: corrupt classifier width")
	}
	for _, c := range o.codes { // a code indexes a K-entry lookup table row
		if int(c) >= opq.PQ.K {
			return nil, errors.New("ddc: corrupt PQ code")
		}
	}
	return o, nil
}

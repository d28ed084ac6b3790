package ddc

import (
	"errors"

	"resinfer/internal/learn"
	"resinfer/internal/pca"
	"resinfer/internal/persist"
	"resinfer/internal/quant"
	"resinfer/internal/store"
)

// Version 3 of the DDCres and DDCpca streams holds the comparator alone: the
// index stream writes its rows and basis once; norms are recomputed.
const (
	resMagic    = "RIRES3"
	pcaDCOMagic = "RIDPC3"
	opqDCOMagic = "RIDOQ2"
)

// Encode writes the DDCres tuning onto an existing persist stream; the
// rows and the model it was built over are the caller's to write.
func (r *Res) Encode(pw *persist.Writer) {
	pw.Magic(resMagic)
	pw.F64(float64(r.m))
	pw.Int(r.initD)
	pw.Int(r.deltaD)
}

// DecodeRes reads a DDCres comparator written by Encode and builds it over
// rotated, the rows model projected, as NewResRotated does.
func DecodeRes(pr *persist.Reader, rotated *store.Matrix, model *pca.Model) (*Res, error) {
	pr.Magic(resMagic)
	m := pr.F64()
	initD := pr.Int()
	deltaD := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if model == nil || len(model.Sigmas) != model.Dim || !(m > 0) || initD <= 0 || deltaD <= 0 {
		return nil, errors.New("ddc: corrupt encoded Res")
	}
	return NewResRotated(rotated, model, ResConfig{Multiplier: m, InitD: initD, DeltaD: deltaD})
}

// Encode writes the DDCpca levels and classifiers onto an existing persist
// stream; the rows and the model are the caller's to write, as for Res.
func (p *PCADCO) Encode(pw *persist.Writer) {
	pw.Magic(pcaDCOMagic)
	pw.Ints(p.levels)
	pw.Int(len(p.classifiers))
	for _, c := range p.classifiers {
		c.Encode(pw)
	}
}

// DecodePCA reads a DDCpca comparator written by Encode over rotated, the
// rows model projected.
func DecodePCA(pr *persist.Reader, rotated *store.Matrix, model *pca.Model) (*PCADCO, error) {
	pr.Magic(pcaDCOMagic)
	if model == nil || len(model.Variances) != model.Dim {
		return nil, errors.New("ddc: DDCpca stream with no model spectrum")
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
	for _, l := range p.levels {
		if l <= 0 || l >= p.dim {
			return nil, errors.New("ddc: corrupt level")
		}
	}
	p.fillVarTail()
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

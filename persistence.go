package resinfer

import (
	"errors"
	"fmt"
	"io"
	"os"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/ddc"
	"resinfer/internal/flat"
	"resinfer/internal/hnsw"
	"resinfer/internal/ivf"
	"resinfer/internal/metric"
	"resinfer/internal/pca"
	"resinfer/internal/persist"
	"resinfer/internal/store"
)

// Version 3 writes an index's rows once, in the basis a PCA mode re-based
// them into, then that basis; version 2 files are not read.
const fileMagic = "RESINFER3"

// Save serializes the index — structure, vectors, and every enabled
// comparator — so a later Load skips both construction and training.
func (ix *Index) Save(w io.Writer) error {
	pw := persist.NewWriter(w)
	if err := ix.encode(pw); err != nil {
		return err
	}
	return pw.Flush()
}

// encode writes the index onto an existing persist stream. It is the
// codec-level half of Save, shared with the sharded container format,
// which embeds one index stream per shard.
func (ix *Index) encode(pw *persist.Writer) error {
	modes := ix.Modes() // sorted: deterministic files
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pw.Magic(fileMagic)
	pw.String(string(ix.kind))
	pw.String(string(ix.metric.kind))
	pw.Int(ix.userDim)
	if ix.metric.kind == InnerProduct {
		pw.F64(ix.metric.ip.MaxSq)
	}
	switch ix.kind {
	case HNSW:
		ix.hnswIdx.Encode(pw) // the graph's rows are the index's
	case IVF:
		ix.ivfIdx.Encode(pw)
		// IVF does not embed the vectors; write them explicitly.
		ix.data.Encode(pw)
	case Flat:
		ix.data.Encode(pw)
	default:
		return fmt.Errorf("resinfer: cannot serialize index kind %q", ix.kind)
	}
	pw.Bool(ix.basis != nil)
	if ix.basis != nil {
		ix.basis.Encode(pw)
	}
	pw.Int(len(modes) - 1) // Exact is rebuilt from the vectors
	for _, m := range modes {
		if m == Exact {
			continue
		}
		pw.String(string(m))
		// Every comparator but Exact writes itself, tuning included: Enable
		// may have trained it with per-call options.
		d, ok := ix.modes[m].dco.(interface{ Encode(*persist.Writer) })
		if !ok {
			return fmt.Errorf("resinfer: cannot serialize mode %s", m)
		}
		d.Encode(pw)
	}
	return pw.Err()
}

// Load deserializes an index written by Save.
func Load(r io.Reader) (*Index, error) {
	return decodeIndex(persist.NewReader(r))
}

// decodeIndex reads one index stream from an existing persist reader. It
// is the codec-level half of Load, shared with the sharded container
// format.
func decodeIndex(pr *persist.Reader) (*Index, error) {
	pr.Magic(fileMagic)
	kind := IndexKind(pr.String())
	mk := MetricKind(pr.String())
	userDim := pr.Int()
	ms := &metricState{kind: mk}
	switch mk {
	case L2, Cosine:
	case InnerProduct:
		ms.ip = &metric.IPTransform{Dim: userDim, MaxSq: pr.F64()}
	default:
		if pr.Err() == nil {
			return nil, fmt.Errorf("resinfer: unknown metric %q in stream", mk)
		}
	}
	if err := pr.Err(); err != nil {
		return nil, err
	}
	ix := &Index{kind: kind, userDim: userDim, metric: ms,
		opts:  (*Options)(nil).withDefaults(),
		modes: map[Mode]enabledMode{}}
	ix.opts.Metric = mk
	switch kind {
	case HNSW:
		idx, err := hnsw.Decode(pr)
		if err != nil {
			return nil, err
		}
		ix.hnswIdx = idx
		ix.data = idx.Data()
	case IVF:
		idx, err := ivf.Decode(pr)
		if err != nil {
			return nil, err
		}
		ix.ivfIdx = idx
		ix.data, err = store.Decode(pr)
		if err != nil {
			return nil, err
		}
	case Flat:
		var err error
		ix.data, err = store.Decode(pr)
		if err != nil {
			return nil, err
		}
		idx, err := flat.New(ix.data.Rows(), ix.data.Dim())
		if err != nil {
			return nil, err
		}
		ix.flatIdx = idx
	default:
		return nil, fmt.Errorf("resinfer: unknown index kind %q in stream", kind)
	}
	if ix.data == nil || ix.data.Rows() == 0 {
		return nil, errors.New("resinfer: stream carries no vectors")
	}
	ix.n, ix.dim = ix.data.Rows(), ix.data.Dim()
	// Searches size the caller's query by userDim and the comparators'
	// scratch by dim; the metric reduction fixes how the two relate.
	wantDim := userDim
	if mk == InnerProduct {
		wantDim++ // rows carry one augmenting coordinate
	}
	if ix.dim != wantDim {
		return nil, fmt.Errorf("resinfer: stream stores %d-d rows for %d-d %s queries", ix.dim, userDim, mk)
	}
	var err error
	if pr.Bool() {
		if ix.basis, err = pca.Decode(pr); err != nil {
			return nil, err
		}
	}
	exact, err := core.NewExactIn(ix.data, ix.basis) // checks the basis's dimension
	if err != nil {
		return nil, err
	}
	ix.installDCO(Exact, exact)

	nModes := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if nModes < 0 || nModes > 16 {
		return nil, errors.New("resinfer: corrupt mode count")
	}
	for i := 0; i < nModes; i++ {
		m := Mode(pr.String())
		if err := pr.Err(); err != nil {
			return nil, err
		}
		var dco core.DCO
		switch m {
		case ADSampling:
			dco, err = adsampling.Decode(pr)
		case DDCRes:
			dco, err = ddc.DecodeRes(pr, ix.data, ix.basis)
		case DDCPCA:
			dco, err = ddc.DecodePCA(pr, ix.data, ix.basis)
		case DDCOPQ: // its exact fallback reads rows in the internal space
			internal := ix.data
			if ix.basis != nil {
				internal, err = ix.basis.Unproject(ix.data)
			}
			if err == nil {
				dco, err = ddc.DecodeOPQ(pr, internal)
			}
		default:
			return nil, fmt.Errorf("resinfer: unknown mode %q in stream", m)
		}
		if err != nil {
			return nil, err
		}
		if dco.Size() != ix.n {
			return nil, fmt.Errorf("resinfer: mode %s covers %d points, index has %d",
				m, dco.Size(), ix.n)
		}
		ix.installDCO(m, dco)
	}
	return ix, nil
}

// SaveFile writes the index to a file.
func (ix *Index) SaveFile(path string) error { return saveFile(path, ix.Save) }

// LoadFile reads an index from a file written by SaveFile.
func LoadFile(path string) (*Index, error) { return loadFile(path, Load) }

// saveFile creates (or truncates) path, writes it with save and syncs it.
func saveFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := save(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// loadFile opens path and reads it with load.
func loadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return load(f)
}

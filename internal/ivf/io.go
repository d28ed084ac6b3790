package ivf

import (
	"errors"

	"resinfer/internal/persist"
	"resinfer/internal/store"
)

// Version 2 stores the centroids as one flat matrix block.
const indexMagic = "RIIVF2"

// Encode writes the index (centroids and inverted lists) onto an existing
// persist stream. The base vectors live in the DCO, not the IVF index, and
// are not written.
func (idx *Index) Encode(pw *persist.Writer) {
	pw.Magic(indexMagic)
	pw.Int(idx.dim)
	pw.Int(idx.size)
	idx.centroids.Encode(pw)
	pw.Int(len(idx.lists))
	for _, lst := range idx.lists {
		pw.I32s(lst)
	}
}

// Decode reads an index previously written by Encode.
func Decode(pr *persist.Reader) (*Index, error) {
	pr.Magic(indexMagic)
	dim := pr.Int()
	size := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	centroids, err := store.Decode(pr)
	if err != nil {
		return nil, err
	}
	nl := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	// One list per centroid, and the centroids have already arrived: nl is
	// checked against them before it sizes anything.
	if dim <= 0 || nl != centroids.Rows() || centroids.Dim() != dim {
		return nil, errors.New("ivf: corrupt list count")
	}
	lists := make([][]int32, nl)
	total := 0
	for i := range lists {
		lists[i] = pr.I32s()
		total += len(lists[i])
	}
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if total != size {
		return nil, errors.New("ivf: corrupt index")
	}
	for _, lst := range lists {
		for _, id := range lst {
			if id < 0 || int(id) >= size {
				return nil, errors.New("ivf: corrupt list entry")
			}
		}
	}
	return newIndex(dim, centroids, lists, size), nil
}

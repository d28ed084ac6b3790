package hnsw

import (
	"errors"

	"resinfer/internal/persist"
)

// indexMagic opens a graph. In an index file the rows follow the graph as
// one flat matrix block, written and read by the index that owns them.
const indexMagic = "RIHNSW2"

// maxLevels bounds a decoded graph's level count. Levels are drawn as
// floor(-ln(U)/ln(M)), so 64 is out of reach for any buildable graph.
const maxLevels = 64

// Encode writes the graph onto an existing persist stream, so it can be
// composed into larger files. The rows are not the graph's and are not
// written.
func (idx *Index) Encode(pw *persist.Writer) {
	pw.Magic(indexMagic)
	pw.Int(idx.dim)
	pw.Int(idx.m)
	pw.Int(idx.mMax0)
	pw.Int(idx.efCon)
	pw.I64(int64(idx.entry))
	pw.Int(idx.maxLevel)
	pw.Int(len(idx.links))
	for _, perLevel := range idx.links {
		pw.Int(len(perLevel))
		for _, lst := range perLevel {
			pw.I32s(lst)
		}
	}
}

// Decode reads a graph previously written by Encode. The caller checks
// that the rows it is searched over number Len() and have Dim() coordinates.
func Decode(pr *persist.Reader) (*Index, error) {
	pr.Magic(indexMagic)
	dim := pr.Int()
	m := pr.Int()
	mMax0 := pr.Int()
	efCon := pr.Int()
	entry := int32(pr.I64())
	maxLevel := pr.Int()
	n := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if n <= 0 || n > persist.MaxSliceLen {
		return nil, errors.New("hnsw: corrupt node count")
	}
	// The header is a claim: a walk descends from maxLevel and sizes its
	// beams from these, so they are checked before anything trusts them.
	if m <= 0 || mMax0 <= 0 || efCon <= 0 {
		return nil, errors.New("hnsw: corrupt graph parameters")
	}
	if maxLevel < 0 || maxLevel >= maxLevels {
		return nil, errors.New("hnsw: corrupt top level")
	}
	// Nothing before the adjacency bounds n: links grows as nodes actually
	// arrive.
	links := make([][][]int32, 0, min(n, 1<<14))
	for i := 0; i < n; i++ {
		levels := pr.Int()
		if pr.Err() != nil {
			return nil, pr.Err()
		}
		if levels < 0 || levels > maxLevel+1 {
			return nil, errors.New("hnsw: corrupt level count")
		}
		perLevel := make([][]int32, levels)
		for l := range perLevel {
			perLevel[l] = pr.I32s()
		}
		links = append(links, perLevel)
	}
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if dim <= 0 || int(entry) >= n || entry < 0 {
		return nil, errors.New("hnsw: corrupt index")
	}
	if maxLevel != len(links[entry])-1 {
		return nil, errors.New("hnsw: top level is not the entry point's")
	}
	for node, perLevel := range links {
		for _, lst := range perLevel {
			for _, nb := range lst {
				if nb < 0 || int(nb) >= n || int(nb) == node {
					return nil, errors.New("hnsw: corrupt adjacency")
				}
			}
		}
	}
	pack(links) // sized from the lists that arrived, as Build leaves them
	return newIndex(dim, m, mMax0, efCon, entry, maxLevel, links), nil
}

package hnsw

import (
	"errors"

	"resinfer/internal/persist"
	"resinfer/internal/store"
)

// Version 2 stores the vectors as one flat matrix block.
const indexMagic = "RIHNSW2"

// maxLevels bounds a decoded graph's level count. Levels are drawn as
// floor(-ln(U)/ln(M)), so 64 is out of reach for any buildable graph.
const maxLevels = 64

// Encode writes the index (graph structure and vectors) onto an existing
// persist stream, so it can be composed into larger files.
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
	idx.data.Encode(pw)
}

// Decode reads an index previously written by Encode.
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
	// The vectors come after the adjacency, so n cannot be checked against
	// them yet: links grows as nodes actually arrive.
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
	data, err := store.Decode(pr)
	if err != nil {
		return nil, err
	}
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if data.Rows() != n || dim <= 0 || data.Dim() != dim || int(entry) >= n || entry < 0 {
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
	return newIndex(dim, m, mMax0, efCon, entry, maxLevel, links, data), nil
}

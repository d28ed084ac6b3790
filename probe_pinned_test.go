package resinfer

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// probePins pins, per distance-kernel implementation (SIMDLevel), the
// sha256 of the sharded probe's answers: ground truth (IDs, distance bits
// and shard attribution) across every index kind and metric, on immutable
// and on scripted mutable indexes, then the served answers of an immutable
// 4-shard HNSW index through both fan-outs, one hash for Exact and one for
// DDCRes. A change to the probe that moves a single bit of any answer
// changes a hash; the Exact hash holds across any change to how the walk
// treats pruned candidates, since exact never prunes. At budget 40 every
// ≈ 112-row shard is past its break-even ef ⌈112 / 32⌉, so the served
// answers are scans of the shards' Flat views. The last two hashes pin the
// graph walk itself: a single HNSW index over the same rows with M 4 is
// searched at budget 40, below its break-even ef ⌈450 / 8⌉ = 57, once
// under Exact and once under DDCRes.
var probePins = map[string][5]string{
	"avx2+fma": {
		"900163fa275b16660c6a985f903cd5ee88ac5500ba5f8f567f6d1153f83bfda6",
		"b20c56e8f01d3058d2748c3de7a7f4417b85225ff21dffdd0b7379001b99cb97",
		"68149888590b14567618d3e43198f74dd6eae3a590720ab00fc48744d564cb73",
		"5c4499690b5ce939d3e5b1c3b87f532193e830c2742fea6170c041323dd0fb25",
		"88430b2d476b2d3309b8d2f92d0955e6edc673ae399a9ab30c58c3ce907ec688",
	},
	"generic": {
		"aa3d691092cd0d906fc243d77c616ad9ee1c6268e62cec65a4ef8b3c15e2cdfe",
		"37bc08fe427796a9fe727010f226f95cfaaacdc3adce3cc58e6f2f4ec1c83210",
		"e854c6907d4efb78e0f86a3acab67eaefc852b54b38f64e84dc0e072b3a20054",
		"9192862f08b2a129a4c64f91a182f7a293141f10a2930dda07d47d4521655644",
		"1df2d7fc553f28bc465310f985ee52649f6efd4a12290342bc9ab83b76a2662c",
	},
}

func hashNeighbors(h hash.Hash, ns []Neighbor, shards []int) {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(ns)))
	h.Write(b[:4])
	for i, n := range ns {
		binary.LittleEndian.PutUint32(b[:4], uint32(n.ID))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(n.Distance))
		h.Write(b[:])
		if shards != nil {
			binary.LittleEndian.PutUint32(b[:4], uint32(shards[i]))
			h.Write(b[:4])
		}
	}
}

func TestShardProbeAnswersPinned(t *testing.T) {
	pins, ok := probePins[SIMDLevel()]
	if !ok {
		t.Skipf("no pinned answers for kernel level %s", SIMDLevel())
	}
	const n, dim, k, shards = 450, 40, 10, 3
	data := randData(31, n, dim)
	queries := randData(32, 6, dim)
	opts := func(m MetricKind) *Options {
		return &Options{Metric: m, Seed: 5, HNSWEfConstruction: 60, IVFNList: 8}
	}

	gt := sha256.New()
	truth := func(name string, sx *ShardedIndex) {
		for _, q := range queries {
			ns, owners, _, err := sx.GroundTruthSearch(nil, nil, q, k)
			if err != nil {
				t.Fatalf("%s: GroundTruthSearch: %v", name, err)
			}
			hashNeighbors(gt, ns, owners)
		}
	}
	for _, kind := range []IndexKind{Flat, HNSW, IVF} {
		for _, metric := range []MetricKind{L2, Cosine, InnerProduct} {
			name := string(kind) + "/" + string(metric)
			sx, err := NewSharded(data, kind, shards, &ShardOptions{Index: opts(metric)})
			if err != nil {
				t.Fatal(err)
			}
			truth(name+"/immutable", sx)
			if err := sx.Enable(DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			truth(name+"/immutable+ddc-res", sx)

			mx, err := NewMutable(data, kind, shards, &MutableOptions{
				Index: opts(metric), DisableAutoCompact: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := mx.Enable(DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			fresh := randData(33, 60, dim)
			script := func(lo int) {
				for id := lo; id < lo+15; id++ {
					if _, err := mx.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 15; i++ {
					if _, err := mx.Upsert(lo+100+i, fresh[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i := 15; i < 30; i++ {
					if _, err := mx.Add(fresh[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			script(0)
			truth(name+"/mutable", mx.ShardedIndex)
			if _, err := mx.Compact(); err != nil {
				t.Fatal(err)
			}
			fresh = randData(34, 60, dim)
			script(200)
			truth(name+"/mutable+compacted", mx.ShardedIndex)
			mx.Close()
		}
	}

	served := map[Mode]hash.Hash{Exact: sha256.New(), DDCRes: sha256.New()}
	sx, err := NewSharded(data, HNSW, 4, &ShardOptions{Index: opts(L2), SearchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Exact, DDCRes} {
		for _, q := range queries {
			ns, _, err := sx.SearchInto(nil, q, k, mode, 40)
			if err != nil {
				t.Fatal(err)
			}
			hashNeighbors(served[mode], ns, nil)
			ns, _, err = sx.SearchCtx(context.Background(), nil, q, k, mode, 40, nil)
			if err != nil {
				t.Fatal(err)
			}
			hashNeighbors(served[mode], ns, nil)
		}
	}

	walked := map[Mode]hash.Hash{Exact: sha256.New(), DDCRes: sha256.New()}
	wopts := opts(L2)
	wopts.HNSWM = 4
	ix, err := New(data, HNSW, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Exact, DDCRes} {
		for _, q := range queries {
			ns, _, err := ix.SearchInto(nil, q, k, mode, 40)
			if err != nil {
				t.Fatal(err)
			}
			hashNeighbors(walked[mode], ns, nil)
		}
	}

	if got := hex.EncodeToString(gt.Sum(nil)); got != pins[0] {
		t.Errorf("ground-truth answers moved: sha256 %s, pinned %s", got, pins[0])
	}
	for i, mode := range []Mode{Exact, DDCRes} {
		if got := hex.EncodeToString(served[mode].Sum(nil)); got != pins[1+i] {
			t.Errorf("served %s answers moved: sha256 %s, pinned %s", mode, got, pins[1+i])
		}
		if got := hex.EncodeToString(walked[mode].Sum(nil)); got != pins[3+i] {
			t.Errorf("walked %s answers moved: sha256 %s, pinned %s", mode, got, pins[3+i])
		}
	}
}

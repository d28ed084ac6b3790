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
// 4-shard HNSW index through both fan-outs. A change to the probe that
// moves a single bit of any answer changes a hash.
var probePins = map[string][2]string{
	"avx2+fma": {
		"900163fa275b16660c6a985f903cd5ee88ac5500ba5f8f567f6d1153f83bfda6",
		"12ae7ad084db2b28988c8b9a22edad5e16b2f3de7cb9deaef2672e63d8bdce29",
	},
	"generic": {
		"aa3d691092cd0d906fc243d77c616ad9ee1c6268e62cec65a4ef8b3c15e2cdfe",
		"cb6c7bbc12f51cbc405b5a7cbaf86c0f99b15581166396baae54ca6768bc5328",
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

	served := sha256.New()
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
			hashNeighbors(served, ns, nil)
			ns, _, err = sx.SearchCtx(context.Background(), nil, q, k, mode, 40, nil)
			if err != nil {
				t.Fatal(err)
			}
			hashNeighbors(served, ns, nil)
		}
	}

	if got := hex.EncodeToString(gt.Sum(nil)); got != pins[0] {
		t.Errorf("ground-truth answers moved: sha256 %s, pinned %s", got, pins[0])
	}
	if got := hex.EncodeToString(served.Sum(nil)); got != pins[1] {
		t.Errorf("served answers moved: sha256 %s, pinned %s", got, pins[1])
	}
}

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
// treats pruned candidates, since exact never prunes.
var probePins = map[string][3]string{
	"avx2+fma": {
		"900163fa275b16660c6a985f903cd5ee88ac5500ba5f8f567f6d1153f83bfda6",
		"b20c56e8f01d3058d2748c3de7a7f4417b85225ff21dffdd0b7379001b99cb97",
		"1b6bb068cc91ab39b7a037150f5a325b11fb6a60128b0eac3ad18f9438209c42",
	},
	"generic": {
		"aa3d691092cd0d906fc243d77c616ad9ee1c6268e62cec65a4ef8b3c15e2cdfe",
		"37bc08fe427796a9fe727010f226f95cfaaacdc3adce3cc58e6f2f4ec1c83210",
		"b77832f8b045b396bd1dda1b37fde7061337b0bd0cdd2c05df25fae4951c344a",
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

	if got := hex.EncodeToString(gt.Sum(nil)); got != pins[0] {
		t.Errorf("ground-truth answers moved: sha256 %s, pinned %s", got, pins[0])
	}
	for i, mode := range []Mode{Exact, DDCRes} {
		if got := hex.EncodeToString(served[mode].Sum(nil)); got != pins[1+i] {
			t.Errorf("served %s answers moved: sha256 %s, pinned %s", mode, got, pins[1+i])
		}
	}
}

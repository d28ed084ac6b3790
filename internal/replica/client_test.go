package replica

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"resinfer/internal/server"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzShardAnswer holds the client's decode of a peer's shard answer to
// the contract of the index decoders: on any bytes it returns without a
// panic, having read at most shardAnswerCap(k) of them and allocated in
// proportion to that cap, and an answer it accepts has at most k
// neighbours and no negative ID.
func FuzzShardAnswer(f *testing.F) {
	good, err := json.Marshal(server.ShardSearchResponse{
		Neighbors:   []server.ShardNeighbor{{ID: 3, Key: 0.5}, {ID: 9, Key: 1.25}, {ID: 1 << 40, Key: 3e38}},
		Comparisons: 120, Pruned: 80,
	})
	if err != nil {
		f.Fatal(err)
	}
	if ns, st, err := decodeShardAnswer(bytes.NewReader(good), 3); err != nil || len(ns) != 3 || ns[2].ID != 1<<40 || st.Pruned != 80 {
		f.Fatalf("a good answer decoded to %v, %+v, %v", ns, st, err)
	}
	widest := server.ShardSearchResponse{Neighbors: make([]server.ShardNeighbor, 255), Comparisons: math.MaxInt64, Pruned: math.MaxInt64}
	for i := range widest.Neighbors {
		widest.Neighbors[i] = server.ShardNeighbor{ID: math.MaxInt, Key: -math.MaxFloat32}
	}
	if body, _ := json.Marshal(widest); int64(len(body)) > shardAnswerCap(255) {
		f.Fatalf("255 of the widest neighbours take %d bytes, past the cap of %d", len(body), shardAnswerCap(255))
	}
	f.Add(good, uint8(3))
	f.Add(good, uint8(2))
	f.Add([]byte(`{"neighbors":[{"id":-1,"key":0}]}`), uint8(3))
	f.Add([]byte(`{"neighbors":[{"id":4,"key":-3e38}]}`), uint8(3))
	f.Add([]byte(`{"neighbors":[`+strings.Repeat(`{},`, 8000)+`{}]}`), uint8(255))
	f.Add([]byte(`{"neighbors":null,"comparisons":-1}`), uint8(0))
	f.Add([]byte(`{"neighbors":[{"id":1e300}]}`), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, k8 uint8) {
		k := int(k8)
		cr := &countingReader{r: bytes.NewReader(data)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ns, _, err := decodeShardAnswer(cr, k)
		runtime.ReadMemStats(&after)
		limit := shardAnswerCap(k)
		if cr.n > limit {
			t.Fatalf("read %d bytes for k = %d, cap %d", cr.n, k, limit)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64<<10+32*limit) {
			t.Fatalf("allocated %d bytes decoding %d for k = %d (cap %d)", grew, len(data), k, limit)
		}
		if err != nil {
			return
		}
		if len(ns) > k {
			t.Fatalf("accepted %d neighbours for k = %d", len(ns), k)
		}
		for _, n := range ns {
			if n.ID < 0 {
				t.Fatalf("accepted neighbour ID %d", n.ID)
			}
		}
	})
}

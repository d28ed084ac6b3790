package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"resinfer"
)

func decodeInto(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// mutableFixture builds a small mutable index and serves it.
func mutableFixture(t *testing.T) (*resinfer.MutableIndex, *Server, *httptest.Server) {
	t.Helper()
	ds, _ := testFixtures(t)
	mx, err := resinfer.NewMutable(ds.Data, resinfer.Flat, 2,
		&resinfer.MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(mx, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		mx.Close()
	})
	return mx, srv, ts
}

func TestServerMutationEndpoints(t *testing.T) {
	mx, _, ts := mutableFixture(t)
	dim := mx.QueryDim()
	vecBody := make([]float32, dim)
	for i := range vecBody {
		vecBody[i] = float32(i) * 0.01
	}

	// Auto-assigned insert.
	var up struct {
		ID int `json:"id"`
	}
	resp := postJSON(t, ts.URL+"/upsert", map[string]any{"vector": vecBody}, &up)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert status %d", resp.StatusCode)
	}
	if up.ID < 2000 {
		t.Fatalf("auto id %d should be past the initial corpus", up.ID)
	}
	autoID := up.ID
	before := mx.Len()

	// Explicit-ID upsert replacing a base row leaves the count unchanged.
	resp = postJSON(t, ts.URL+"/upsert", map[string]any{"id": 7, "vector": vecBody}, &up)
	if resp.StatusCode != http.StatusOK || up.ID != 7 {
		t.Fatalf("explicit upsert: status %d id %d", resp.StatusCode, up.ID)
	}
	if mx.Len() != before {
		t.Fatalf("replacement changed Len %d → %d", before, mx.Len())
	}

	// The fresh vector is searchable immediately with perfect recall
	// (exact memtable scan) — it is its own nearest neighbor.
	var sr struct {
		Neighbors []struct {
			ID int `json:"id"`
		} `json:"neighbors"`
	}
	resp = postJSON(t, ts.URL+"/search", map[string]any{"query": vecBody, "k": 2}, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if len(sr.Neighbors) == 0 || (sr.Neighbors[0].ID != autoID && sr.Neighbors[0].ID != 7) {
		t.Fatalf("fresh vector not top hit: %+v", sr.Neighbors)
	}

	// Delete it, verify it never comes back.
	var del struct {
		Deleted bool `json:"deleted"`
	}
	resp = postJSON(t, ts.URL+"/delete", map[string]any{"id": 7}, &del)
	if resp.StatusCode != http.StatusOK || !del.Deleted {
		t.Fatalf("delete: status %d deleted %v", resp.StatusCode, del.Deleted)
	}
	resp = postJSON(t, ts.URL+"/delete", map[string]any{"id": 7}, &del)
	if resp.StatusCode != http.StatusOK || del.Deleted {
		t.Fatalf("double delete: status %d deleted %v", resp.StatusCode, del.Deleted)
	}
	resp = postJSON(t, ts.URL+"/search", map[string]any{"query": vecBody, "k": 5}, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	for _, n := range sr.Neighbors {
		if n.ID == 7 {
			t.Fatal("deleted id 7 surfaced in search results")
		}
	}

	// Compact via the endpoint and check the mutation stats section.
	var comp struct {
		Compacted int `json:"compacted"`
	}
	resp = postJSON(t, ts.URL+"/compact", map[string]any{}, &comp)
	if resp.StatusCode != http.StatusOK || comp.Compacted == 0 {
		t.Fatalf("compact: status %d compacted %d", resp.StatusCode, comp.Compacted)
	}

	hr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var snap StatsSnapshot
	decodeInto(t, hr, &snap)
	if snap.Mutation == nil {
		t.Fatal("/stats missing mutation section on a mutable index")
	}
	if snap.Mutation.Inserts != 2 || snap.Mutation.Deletes != 1 {
		t.Fatalf("mutation counters: %+v", snap.Mutation)
	}
	if snap.Mutation.Compactions == 0 {
		t.Fatal("compactions counter not surfaced")
	}
	if snap.Mutation.MemtableRows != 0 {
		t.Fatalf("memtable depth %d after compaction", snap.Mutation.MemtableRows)
	}
	if snap.Upserts != 2 || snap.Deletes != 1 {
		t.Fatalf("http-level counters: upserts=%d deletes=%d", snap.Upserts, snap.Deletes)
	}
}

func TestServerMutationBadRequests(t *testing.T) {
	_, _, ts := mutableFixture(t)
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/upsert", map[string]any{}},                       // no vector
		{"/upsert", map[string]any{"vector": []float32{1}}}, // wrong dim
		{"/delete", map[string]any{}},                       // no id
		{"/delete", map[string]any{"id": -4}},               // negative id
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %v: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// TestServerMutationRejectsUnknownFields pins DisallowUnknownFields on
// the mutation endpoints: a client typo ("vektor") must 400 and mutate
// nothing, not be silently ignored.
func TestServerMutationRejectsUnknownFields(t *testing.T) {
	mx, _, ts := mutableFixture(t)
	dim := mx.QueryDim()
	vecBody := make([]float32, dim)
	before := mx.Len()
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/upsert", map[string]any{"vektor": vecBody}},
		{"/upsert", map[string]any{"vector": vecBody, "mode": "exact"}},
		{"/delete", map[string]any{"id": 3, "cascade": true}},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %v: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	if mx.Len() != before {
		t.Fatalf("rejected requests mutated the index: %d → %d rows", before, mx.Len())
	}
}

// TestServerMutationRejectsNonFiniteVectors pins the scanRow validation
// end to end: NaN/±Inf components would poison exact memtable scans and
// comparator retraining, so /upsert must 400 them.
func TestServerMutationRejectsNonFiniteVectors(t *testing.T) {
	mx, _, ts := mutableFixture(t)
	dim := mx.QueryDim()
	before := mx.Len()
	for _, bad := range []string{"NaN", "Infinity", "-Infinity"} {
		// Go's json won't marshal non-finite floats; splice raw JSON.
		body := `{"vector":[` + bad
		for i := 1; i < dim; i++ {
			body += ",0"
		}
		body += `]}`
		resp, err := http.Post(ts.URL+"/upsert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// encoding/json itself rejects bare NaN/Infinity literals; either
		// way the contract is a 400, not a poisoned index.
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upsert %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// Direct API check with a real NaN (bypassing JSON limitations).
	vec := make([]float32, dim)
	vec[dim/2] = float32(math.NaN())
	if _, err := mx.Upsert(-1, vec); !errors.Is(err, resinfer.ErrInvalidVector) {
		t.Fatalf("Upsert(NaN) error = %v, want ErrInvalidVector", err)
	}
	vec[dim/2] = float32(math.Inf(-1))
	if _, err := mx.Upsert(-1, vec); !errors.Is(err, resinfer.ErrInvalidVector) {
		t.Fatalf("Upsert(-Inf) error = %v, want ErrInvalidVector", err)
	}
	if mx.Len() != before {
		t.Fatalf("invalid vectors mutated the index: %d → %d rows", before, mx.Len())
	}
}

// failingMutator simulates an index whose mutation path fails
// internally (e.g. a failed shard rebuild): the server must answer 500,
// not blame the client with a 400. It embeds a real index for both
// interfaces and overrides only the three calls it fakes.
type failingMutator struct {
	Engine
	Mutator
}

func (failingMutator) Upsert(id int, v []float32) (int, error) {
	return 0, errors.New("rebuild failed: disk on fire")
}
func (failingMutator) Delete(id int) (bool, error) {
	return false, errors.New("rebuild failed: disk on fire")
}
func (failingMutator) Compact() (int, error) {
	return 0, errors.New("rebuild failed: disk on fire")
}

func TestServerInternalMutationErrorsAre500(t *testing.T) {
	ds, _ := testFixtures(t)
	mx, err := resinfer.NewMutable(ds.Data, resinfer.Flat, 2, &resinfer.MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	srv := New(failingMutator{Engine: mx, Mutator: mx}, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	vecBody := make([]float32, mx.QueryDim())
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/upsert", map[string]any{"vector": vecBody}},
		{"/delete", map[string]any{"id": 1}},
		{"/compact", map[string]any{}},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body, nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("POST %s: status %d, want 500", c.path, resp.StatusCode)
		}
	}
}

func TestServerImmutableIndexHasNoMutationEndpoints(t *testing.T) {
	ds, _ := testFixtures(t)
	sx, err := resinfer.NewSharded(ds.Data, resinfer.Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/upsert", map[string]any{"vector": ds.Data[0]}, nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("immutable index must not accept /upsert")
	}
	hr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var snap StatsSnapshot
	decodeInto(t, hr, &snap)
	if snap.Mutation != nil {
		t.Fatal("immutable /stats must omit the mutation section")
	}
}

// TestRequestBodyCapped checks the cap on a body that carries one vector:
// a /search or /upsert body of exactly maxBody bytes is answered, and one
// byte more is refused with 413 before the decoder has read it all. The
// padding sits inside the JSON value, so the decoder must read every byte.
func TestRequestBodyCapped(t *testing.T) {
	mx, srv, ts := mutableFixture(t)
	limit := int(srv.maxBody())
	v, err := json.Marshal(make([]float32, mx.QueryDim()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, head string }{
		{"/search", `{"k":3,"query":` + string(v)},
		{"/upsert", `{"vector":` + string(v)},
	} {
		for _, extra := range []int{0, 1} {
			body := c.head + strings.Repeat(" ", limit+extra-len(c.head)-1) + "}"
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusOK
			if extra > 0 {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Errorf("%s with a %d-byte body (cap %d): status %d, want %d", c.path, len(body), limit, resp.StatusCode, want)
			}
		}
	}
}

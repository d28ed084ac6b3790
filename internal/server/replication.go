package server

// Replication endpoints: what one annserve process exposes so peers can
// replicate from it and hedge onto it.
//
//	POST /internal/shard/search        one shard's probe in global merge-ready form (hedge target)
//	GET  /internal/replica/checkpoint  the Save snapshot a joining replica bootstraps from
//	GET  /internal/replica/wal?from=N  the WAL tail past a follower's cursor, length-prefixed CRC records
//	GET  /internal/replica/status      applied LSN + row count
//
// Every server answers shard probes; the replica endpoints exist when
// the index is a Mutator. They sit under /internal/ — a deployment
// fronting annserve with a load balancer should not route that prefix
// from outside the replica group.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"resinfer"
	"resinfer/internal/wal"
)

// registerReplication mounts the shard-probe endpoint and the hedge
// counters, plus the replica-source endpoints on a mutable index. Called
// from New.
func (s *Server) registerReplication() {
	s.mux.HandleFunc("POST /internal/shard/search", s.handleShardSearch)
	s.reg.GaugeFunc("resinfer_hedged_total",
		"Shard probes re-issued to a peer replica (hedges fired).",
		func() float64 { h, _ := s.idx.HedgeStats(); return float64(h) })
	s.reg.GaugeFunc("resinfer_hedge_wins_total",
		"Hedged probes that delivered their shard's first good answer.",
		func() float64 { _, w := s.idx.HedgeStats(); return float64(w) })
	if s.mut == nil {
		return
	}
	s.mux.HandleFunc("GET /internal/replica/checkpoint", s.handleReplicaCheckpoint)
	s.mux.HandleFunc("GET /internal/replica/wal", s.handleReplicaWAL)
	s.mux.HandleFunc("GET /internal/replica/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, replicaStatusJSON{
			AppliedLSN: s.mut.AppliedLSN(),
			Points:     s.idx.Len(),
		})
	})
}

type replicaStatusJSON struct {
	AppliedLSN uint64 `json:"applied_lsn"`
	Points     int    `json:"points"`
}

// ShardSearchRequest is the wire form of a hedged shard probe, POST
// /internal/shard/search: what replica.Client sends and handleShardSearch
// answers with a ShardSearchResponse, the shard's contribution in global,
// merge-ready form (SearchShardGlobal's output).
type ShardSearchRequest struct {
	Shard  int       `json:"shard"`
	Query  []float32 `json:"query"`
	K      int       `json:"k"`
	Mode   string    `json:"mode"`
	Budget int       `json:"budget"`
}

// ShardNeighbor is one row of a ShardSearchResponse.
type ShardNeighbor struct {
	ID int `json:"id"`
	// Key is the cross-shard merge key (resinfer.Neighbor.Distance in
	// global form), not necessarily a user-facing distance.
	Key float32 `json:"key"`
}

// ShardSearchResponse is the answer to a ShardSearchRequest.
type ShardSearchResponse struct {
	Neighbors   []ShardNeighbor `json:"neighbors"`
	Comparisons int64           `json:"comparisons"`
	Pruned      int64           `json:"pruned"`
}

// handleShardSearch answers a peer's hedged probe of one shard: the
// shard's contribution in global merge-ready form (IDs global, Key the
// cross-shard merge key). It bypasses the micro-batcher — a hedge is
// already late, queuing it behind other searches would defeat it.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Inc()
	var req ShardSearchRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		s.failDecode(w, err)
		return
	}
	if req.Shard < 0 || req.Shard >= s.idx.NumShards() {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("shard %d out of range [0,%d)", req.Shard, s.idx.NumShards()))
		return
	}
	key, err := s.resolveParams(req.K, req.Mode, req.Budget)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ns, st, err := s.idx.SearchShardGlobal(req.Shard, req.Query, key.k, key.mode, key.budget)
	if err != nil {
		s.metrics.errors.Inc()
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	resp := ShardSearchResponse{
		Neighbors:   make([]ShardNeighbor, len(ns)),
		Comparisons: st.Comparisons,
		Pruned:      st.Pruned,
	}
	for i, n := range ns {
		resp.Neighbors[i] = ShardNeighbor{ID: n.ID, Key: n.Distance}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReplicaCheckpoint serves the Save snapshot a joining replica
// bootstraps from. The snapshot is buffered in memory first: Save holds
// the mutation lock, and streaming straight to a slow peer would hold
// ingest hostage to the peer's network for the whole transfer.
func (s *Server) handleReplicaCheckpoint(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.mut.Save(&buf); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("snapshotting index: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set(lastLSNHeader, strconv.FormatUint(s.mut.AppliedLSN(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// lastLSNHeader carries the applied LSN on checkpoint and WAL tail
// responses — the high-water mark a follower's cursor must reach to be
// caught up.
const lastLSNHeader = "X-Resinfer-Last-Lsn"

// errWALGap marks a tail request whose cursor the log has trimmed past.
var errWALGap = errors.New("cursor behind trimmed WAL history")

// handleReplicaWAL streams the WAL records with LSN > from, framed
// exactly as on disk (length-prefixed, CRC-checked) behind a stream
// magic. The tail is buffered before the status line goes out, so a gap
// — the cursor sits before history a checkpoint already trimmed — can
// be reported as 410 Gone, telling the follower to re-sync from a fresh
// snapshot instead of silently missing mutations.
func (s *Server) handleReplicaWAL(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad from cursor: %w", err))
		return
	}
	var buf bytes.Buffer
	sw := wal.NewStreamWriter(&buf)
	delivered := uint64(0)
	_, rerr := s.mut.WALReplay(from, func(rec wal.Record) error {
		// LSNs are dense in the retained log: the first record past the
		// cursor not being from+1 means trimmed history.
		if delivered == 0 && rec.LSN > from+1 {
			return errWALGap
		}
		delivered = rec.LSN
		return sw.Write(rec)
	})
	applied := s.mut.AppliedLSN()
	switch {
	case errors.Is(rerr, errWALGap):
		s.fail(w, http.StatusGone, fmt.Errorf("wal trimmed past cursor %d; re-sync from a fresh checkpoint", from))
		return
	case errors.Is(rerr, resinfer.ErrNoWAL):
		s.fail(w, http.StatusConflict, rerr)
		return
	case rerr != nil:
		s.fail(w, http.StatusInternalServerError, rerr)
		return
	case delivered == 0 && from < applied:
		// Nothing retained past the cursor yet the index is ahead of it:
		// the whole gap was trimmed behind a checkpoint.
		s.fail(w, http.StatusGone, fmt.Errorf("wal trimmed past cursor %d; re-sync from a fresh checkpoint", from))
		return
	}
	if err := sw.Flush(); err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set(lastLSNHeader, strconv.FormatUint(applied, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleReplicaReject answers mutation endpoints on a read-only replica:
// 503 naming the primary, so a misrouted writer knows where to go.
func (s *Server) handleReplicaReject(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Inc()
	s.metrics.degradedRejects.Inc()
	w.Header().Set("Retry-After", "0")
	s.fail(w, http.StatusServiceUnavailable,
		fmt.Errorf("read-only replica: mutations go to the primary at %s", s.cfg.ReplicaOf))
}

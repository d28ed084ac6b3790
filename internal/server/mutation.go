package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"resinfer"
	"resinfer/internal/wal"
)

// Mutator is everything a mutable index adds to Engine;
// *resinfer.MutableIndex satisfies it. New checks for it once: a server
// over a Mutator additionally exposes POST /upsert, /delete and /compact,
// the degraded read-only state at /readyz and POST /admin/degraded/clear,
// the mutation counters at /stats, compaction and WAL timings at
// /metrics, a final WAL sync + checkpoint on graceful shutdown, and the
// snapshot + WAL-tail endpoints joining replicas bootstrap from.
type Mutator interface {
	Upsert(id int, vec []float32) (int, error)
	Delete(id int) (bool, error)
	Compact() (int, error)
	MutationStats() resinfer.MutationStats
	SetCompactionObserver(func(resinfer.CompactionInfo))

	// Degraded reports, and ClearDegraded lifts, the fail-stop read-only
	// state entered after persistent WAL failure.
	Degraded() error
	ClearDegraded() error

	// The WAL: fsync policy for the build-info metric, append/fsync
	// latency (the bool reports whether a log is attached), and the flush
	// pair of the graceful drain.
	WALSyncPolicy() string
	SetWALObserver(func(appendDur, syncDur time.Duration)) bool
	SyncWAL() error
	Checkpoint() error

	// The replication source: snapshot, WAL tail, and how far it reaches.
	Save(w io.Writer) error
	WALReplay(after uint64, fn func(wal.Record) error) (wal.ReplayStats, error)
	AppliedLSN() uint64
}

type upsertRequest struct {
	// ID is optional: omitted (or negative) asks the index to assign one.
	ID     *int      `json:"id"`
	Vector []float32 `json:"vector"`
}

type upsertResponse struct {
	ID int `json:"id"`
}

type deleteRequest struct {
	ID *int `json:"id"`
}

type deleteResponse struct {
	Deleted bool `json:"deleted"`
}

type compactResponse struct {
	Compacted int `json:"compacted"`
}

// decodeStrict decodes one JSON value rejecting unknown fields, so a
// client typo ("vektor") fails loudly with a 400 instead of silently
// mutating nothing — or the wrong row.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// mutationStatus maps a mutation-API error to an HTTP status: invalid
// input (dimension mismatch, NaN/±Inf components) is the caller's
// fault; a degraded read-only index is 503 (the service exists, writes
// are temporarily refused — retry against a healthy replica); anything
// else — a failed shard rebuild, a WAL append failure — is an internal
// error.
func mutationStatus(err error) int {
	if errors.Is(err, resinfer.ErrInvalidVector) {
		return http.StatusBadRequest
	}
	if errors.Is(err, resinfer.ErrDegraded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// failMutation reports a mutation error, counting degraded rejections
// on their own so operators can tell "disk is broken" from "bad input".
func (s *Server) failMutation(w http.ResponseWriter, err error) {
	if errors.Is(err, resinfer.ErrDegraded) {
		s.metrics.degradedRejects.Inc()
	}
	s.fail(w, mutationStatus(err), err)
}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Inc()
	var req upsertRequest
	if err := decodeStrict(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Vector) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty vector"))
		return
	}
	id := -1
	if req.ID != nil {
		id = *req.ID
	}
	gid, err := s.mut.Upsert(id, req.Vector)
	if err != nil {
		s.failMutation(w, err)
		return
	}
	s.metrics.upserts.Inc()
	writeJSON(w, http.StatusOK, upsertResponse{ID: gid})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Inc()
	var req deleteRequest
	if err := decodeStrict(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.ID == nil || *req.ID < 0 {
		s.fail(w, http.StatusBadRequest, errors.New("missing or negative id"))
		return
	}
	deleted, err := s.mut.Delete(*req.ID)
	if err != nil {
		s.failMutation(w, err)
		return
	}
	if deleted {
		s.metrics.deletes.Inc()
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: deleted})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Inc()
	compacted, err := s.mut.Compact()
	if err != nil {
		s.failMutation(w, err)
		return
	}
	writeJSON(w, http.StatusOK, compactResponse{Compacted: compacted})
}

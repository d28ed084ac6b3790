package server

import (
	"sync"
	"time"

	"resinfer/internal/obs"
)

// tracePool recycles obs.Trace recorders across requests; ResetAt keeps
// each trace's slice capacity, so tracing settles into zero steady-state
// allocations per request.
var tracePool = sync.Pool{New: func() any { return obs.NewTrace() }}

func getTrace(t0 time.Time) *obs.Trace {
	tr := tracePool.Get().(*obs.Trace)
	tr.ResetAt(t0)
	return tr
}

func putTrace(tr *obs.Trace) {
	if tr != nil {
		tracePool.Put(tr)
	}
}

// traceStageJSON is one pipeline stage on the wire; offsets and
// durations are microseconds from the request start.
type traceStageJSON struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// traceShardJSON is one shard probe within the fan-out stage.
type traceShardJSON struct {
	Shard       int   `json:"shard"`
	StartUs     int64 `json:"start_us"`
	DurUs       int64 `json:"dur_us"`
	Comparisons int64 `json:"comparisons"`
	Pruned      int64 `json:"pruned"`
}

// traceJSON is the inline per-request timeline returned when the client
// opts in via the X-Resinfer-Trace header or "trace": true in the body.
type traceJSON struct {
	TotalUs   int64            `json:"total_us"`
	BatchSize int              `json:"batch_size,omitempty"`
	Stages    []traceStageJSON `json:"stages"`
	Shards    []traceShardJSON `json:"shards,omitempty"`
}

func toTraceJSON(snap obs.Snapshot) *traceJSON {
	tj := &traceJSON{
		TotalUs:   snap.Total.Microseconds(),
		BatchSize: snap.BatchSize,
		Stages:    make([]traceStageJSON, len(snap.Stages)),
	}
	for i, st := range snap.Stages {
		tj.Stages[i] = traceStageJSON{
			Name:    st.Name,
			StartUs: st.Start.Microseconds(),
			DurUs:   st.Dur.Microseconds(),
		}
	}
	if len(snap.Shards) > 0 {
		tj.Shards = make([]traceShardJSON, len(snap.Shards))
		for i, sh := range snap.Shards {
			tj.Shards[i] = traceShardJSON{
				Shard:       sh.Shard,
				StartUs:     sh.Start.Microseconds(),
				DurUs:       sh.Dur.Microseconds(),
				Comparisons: sh.Comparisons,
				Pruned:      sh.Pruned,
			}
		}
	}
	return tj
}

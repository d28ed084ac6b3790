package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"resinfer"
	"resinfer/internal/fault"
	"resinfer/internal/server"
	"resinfer/internal/wal"
)

// lastLSNHeader carries the primary's applied LSN on checkpoint and WAL
// tail responses, so a follower can tell when its cursor has caught up
// to the state the primary is serving.
const lastLSNHeader = "X-Resinfer-Last-Lsn"

// ErrGone reports a WAL tail request for a cursor the primary has
// already trimmed behind a checkpoint: the follower's history is
// unrecoverable over the stream and it must re-sync from a fresh
// snapshot (in practice: restart with -join).
var ErrGone = errors.New("replica: cursor behind the primary's trimmed WAL; re-sync from a fresh snapshot")

// Client is the HTTP side of replication: health probes, snapshot
// fetch, WAL tail streaming and hedged shard searches, all against a
// peer's base URL. A zero Client is not usable; construct with
// NewClient. Client is safe for concurrent use.
type Client struct {
	hc *http.Client
}

// NewClient builds a replication client. timeout caps probe and shard
// search requests end to end; snapshot fetches and tail streams run
// under the caller's context instead (they are long transfers).
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Client{hc: &http.Client{Timeout: timeout}}
}

// streamClient strips the flat timeout for snapshot and tail transfers,
// sharing the underlying transport (and its connection pool).
func (c *Client) streamClient() *http.Client {
	return &http.Client{Transport: c.hc.Transport}
}

// ProbeReady asks one peer whether it is ready to serve: a 200 from
// GET /readyz. member is the peer's index in its Set, threaded to the
// replica.probe fault site so chaos tests can partition one member.
func (c *Client) ProbeReady(ctx context.Context, base string, member int) error {
	if err := fault.CheckArg(fault.SiteReplicaProbe, member); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: %s/readyz: %s", base, resp.Status)
	}
	return nil
}

// FetchCheckpoint streams the primary's checkpoint snapshot — the exact
// bytes MutableIndex.Save writes, loadable with LoadMutable. The caller
// owns closing the returned body.
func (c *Client) FetchCheckpoint(ctx context.Context, base string) (io.ReadCloser, error) {
	if err := fault.Check(fault.SiteReplicaFetch); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/internal/replica/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("replica: %s/internal/replica/checkpoint: %s", base, resp.Status)
	}
	return resp.Body, nil
}

// Tail is one WAL tail response: a stream of records with LSN > the
// requested cursor, plus the primary's applied LSN at response time —
// the high-water mark the follower compares its cursor against to
// decide it has caught up.
type Tail struct {
	// LastLSN is the primary's applied LSN when the tail was cut.
	LastLSN uint64

	sr   *wal.StreamReader
	body io.Closer
}

// Next returns the next record of the tail; io.EOF at the end. A
// wal.ErrStreamCorrupt means the transfer was damaged in flight — the
// follower re-requests from its cursor, which has only advanced past
// records that decoded cleanly.
func (t *Tail) Next() (wal.Record, error) { return t.sr.Next() }

// Close releases the underlying response body.
func (t *Tail) Close() error { return t.body.Close() }

// StreamTail requests the primary's WAL records with LSN > from. It
// returns ErrGone when the primary has trimmed past the cursor (HTTP
// 410): the follower cannot catch up over the stream any more.
func (c *Client) StreamTail(ctx context.Context, base string, from uint64) (*Tail, error) {
	if err := fault.Check(fault.SiteReplicaStream); err != nil {
		return nil, err
	}
	u := base + "/internal/replica/wal?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusGone {
		resp.Body.Close()
		return nil, ErrGone
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("replica: %s: %s", u, resp.Status)
	}
	last, err := strconv.ParseUint(resp.Header.Get(lastLSNHeader), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("replica: %s: bad %s header: %w", u, lastLSNHeader, err)
	}
	return &Tail{LastLSN: last, sr: wal.NewStreamReader(resp.Body), body: resp.Body}, nil
}

// shardAnswerCap is how many bytes of a peer's answer to a probe for k
// neighbours the client reads: 4 KiB, plus 64 B per neighbour, which
// holds the longest ID and key JSON writes. A larger body fails to decode.
func shardAnswerCap(k int) int64 { return 4096 + 64*int64(max(k, 0)) }

// ShardSearch re-issues one shard's query to a peer replica — the
// transport half of a hedge — and returns the shard's contribution in
// global, merge-ready form.
func (c *Client) ShardSearch(ctx context.Context, base string, shard int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error) {
	body, err := json.Marshal(server.ShardSearchRequest{Shard: shard, Query: q, K: k, Mode: string(mode), Budget: budget})
	if err != nil {
		return nil, resinfer.SearchStats{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/internal/shard/search", bytes.NewReader(body))
	if err != nil {
		return nil, resinfer.SearchStats{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, resinfer.SearchStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, resinfer.SearchStats{}, fmt.Errorf("replica: %s/internal/shard/search: %s: %s", base, resp.Status, bytes.TrimSpace(msg))
	}
	return decodeShardAnswer(resp.Body, k)
}

// decodeShardAnswer decodes a peer's answer to a probe for k neighbours
// from at most shardAnswerCap(k) bytes of r. It rejects an answer of more
// than k neighbours or with a negative ID.
func decodeShardAnswer(r io.Reader, k int) ([]resinfer.Neighbor, resinfer.SearchStats, error) {
	var sr server.ShardSearchResponse
	if err := json.NewDecoder(io.LimitReader(r, shardAnswerCap(k))).Decode(&sr); err != nil {
		return nil, resinfer.SearchStats{}, fmt.Errorf("replica: decoding shard search response: %w", err)
	}
	if len(sr.Neighbors) > k {
		return nil, resinfer.SearchStats{}, fmt.Errorf("replica: shard search answered %d neighbors for k = %d", len(sr.Neighbors), k)
	}
	ns := make([]resinfer.Neighbor, len(sr.Neighbors))
	for i, n := range sr.Neighbors {
		if n.ID < 0 {
			return nil, resinfer.SearchStats{}, fmt.Errorf("replica: shard search answered neighbor ID %d", n.ID)
		}
		ns[i] = resinfer.Neighbor{ID: n.ID, Distance: n.Key}
	}
	st := resinfer.SearchStats{Comparisons: sr.Comparisons, Pruned: sr.Pruned, ShardsOK: 1}
	return ns, st, nil
}

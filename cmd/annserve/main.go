// Command annserve builds (or loads) a resinfer index and serves it over
// the HTTP JSON API of internal/server.
//
// Build a sharded index over a synthetic dataset and serve it:
//
//	annserve -n 20000 -dim 64 -kind hnsw -shards 4 -modes exact,ddc-res -addr :8080
//
// Serve a mutable (streaming) index that accepts live upserts, deletes
// and background compaction:
//
//	annserve -mutable -n 20000 -dim 64 -shards 4 -compact-threshold 1024 -addr :8080
//
// Serve a previously saved index (single, sharded or mutable — the file
// format is auto-detected):
//
//	annserve -load index.bin -addr :8080
//
// Query and mutate it:
//
//	curl -s localhost:8080/search -d '{"query":[...],"k":10,"mode":"ddc-res","budget":100}'
//	curl -s localhost:8080/upsert -d '{"vector":[...]}'
//	curl -s localhost:8080/delete -d '{"id":123}'
//	curl -s localhost:8080/compact -d '{}'
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
	"resinfer/internal/fault"
	"resinfer/internal/replica"
	"resinfer/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		loadPath = flag.String("load", "", "load an index file (auto-detects single, sharded or mutable) instead of building")
		savePath = flag.String("save", "", "after building, save the index here")

		kindFlag  = flag.String("kind", "hnsw", "index kind: hnsw | ivf | flat")
		metric    = flag.String("metric", "l2", "metric: l2 | cosine | ip")
		modesFlag = flag.String("modes", "exact,ddc-res", "comma-separated DCO modes to enable")
		shards    = flag.Int("shards", 4, "shard count")

		mutable       = flag.Bool("mutable", false, "serve a mutable (streaming) index: enables POST /upsert, /delete and /compact")
		compactThresh = flag.Int("compact-threshold", resinfer.DefaultCompactThreshold, "per-shard memtable depth triggering background compaction (with -mutable)")
		noAutoCompact = flag.Bool("no-auto-compact", false, "disable background compaction; compact only via POST /compact (with -mutable)")
		walDir        = flag.String("wal-dir", "", "write-ahead log directory (with -mutable): mutations are crash-durable, and on start the directory's checkpoint + log are recovered")
		walSyncFlag   = flag.String("wal-sync", "always", "WAL fsync policy: always | none | interval[=duration] (with -wal-dir)")

		n     = flag.Int("n", 20000, "synthetic dataset size (ignored with -load)")
		dim   = flag.Int("dim", 64, "synthetic dataset dimensionality (ignored with -load)")
		train = flag.Int("train", 500, "training queries generated for learned modes (ignored with -load)")
		seed  = flag.Int64("seed", 42, "generation / construction seed")

		k          = flag.Int("k", 10, "default k when a request omits it")
		budget     = flag.Int("budget", 100, "default search budget when a request omits it")
		batchMax   = flag.Int("batch-max", 64, "cap on queued queries one execution slot takes at once, and on the queries of one /search/batch request")
		maxConc    = flag.Int("max-concurrent", 0, "max concurrent batch executions (0 = GOMAXPROCS)")
		workers    = flag.Int("workers", 0, "SearchBatch worker count (0 = GOMAXPROCS)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "end-to-end deadline per search request: past it the merged partial result is served (or 503 with require_full)")
		maxQueue   = flag.Int("max-queue", 0, "admission-queue shed watermark: queries past it get HTTP 429 (0 = 64×batch-max, negative disables)")
		drainGrace = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown grace for in-flight requests and the final WAL sync + checkpoint")
		faultSpec  = flag.String("faults", "", "fault-injection spec for chaos testing, e.g. 'wal.fsync:delay=5ms;shard.search:err=stuck,arg=1' (also via RESINFER_FAULTS)")

		slowlogThresh = flag.Duration("slowlog-threshold", 250*time.Millisecond, "requests slower than this land in GET /debug/slowlog with per-stage timings (negative disables)")
		accessLog     = flag.Bool("access-log", false, "emit one structured line per request to stderr")
		pprofFlag     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		replicasFlag = flag.String("replicas", "", "comma-separated peer base URLs (e.g. http://host:8081,http://host:8082): peers are health-checked and slow or failed shard probes are hedged onto them")
		joinFlag     = flag.String("join", "", "join the primary at this base URL as a read-only replica: fetch its checkpoint, stream its WAL until caught up, then flip /readyz")
		hedgeDelay   = flag.Duration("hedge-delay", 0, "per-shard hedge delay before re-issuing a probe to a peer (with -replicas; 0 = adaptive, tracking the observed shard p95)")

		qualitySample  = flag.Int("quality-sample", 256, "shadow-recall sampling: re-run ~1/N of live queries as exact scans off-path and serve quality estimates at GET /debug/quality (0 disables)")
		qualityWorkers = flag.Int("quality-workers", 1, "shadow ground-truth worker goroutines (with -quality-sample)")
		sloLatency     = flag.Duration("slo-latency", 100*time.Millisecond, "latency SLO threshold for GET /debug/slo burn rates")
		sloLatencyTgt  = flag.Float64("slo-latency-target", 0.99, "latency SLO target: fraction of requests that must finish within -slo-latency")
		sloRecallTgt   = flag.Float64("slo-recall-target", 0.95, "recall SLO target: mean shadow recall@k must stay at or above this")
	)
	flag.Parse()

	walSync, err := resinfer.ParseWALSync(*walSyncFlag)
	if err != nil {
		log.Fatalf("annserve: %v", err)
	}
	peers, err := replica.ParsePeers(*replicasFlag)
	if err != nil {
		log.Fatalf("annserve: %v", err)
	}
	joinURL, err := replica.ParseJoin(*joinFlag)
	if err != nil {
		log.Fatalf("annserve: %v", err)
	}
	if err := replica.ValidateHedgeDelay(*hedgeDelay); err != nil {
		log.Fatalf("annserve: %v", err)
	}
	if joinURL != "" && *loadPath != "" {
		log.Fatalf("annserve: -join and -load conflict: a joining replica bootstraps from the primary's checkpoint, not a file")
	}
	if joinURL != "" && *walDir != "" {
		log.Fatalf("annserve: -join and -wal-dir conflict: a replica's durability is the primary's WAL; on restart it re-joins from a fresh snapshot")
	}
	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("RESINFER_FAULTS")
	}
	if spec != "" {
		if err := fault.ParseSpec(spec); err != nil {
			log.Fatalf("annserve: %v", err)
		}
		log.Printf("annserve: fault injection armed: %s", spec)
	}
	// A loaded/recovered index carries its own compaction knobs; only an
	// explicitly given -compact-threshold overrides them.
	threshSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "compact-threshold" {
			threshSet = true
		}
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// sx is the engine every search runs through; mx is non-nil when it
	// belongs to a mutable index, which is then what the server is handed.
	repClient := replica.NewClient(2 * time.Second)
	var follower *replica.Follower
	var sx *resinfer.ShardedIndex
	var mx *resinfer.MutableIndex
	if joinURL != "" {
		log.Printf("annserve: joining %s as a read-only replica", joinURL)
		opts := &resinfer.MutableOptions{DisableAutoCompact: *noAutoCompact}
		if threshSet {
			opts.CompactThreshold = *compactThresh
		}
		follower, err = replica.Join(ctx, joinURL, repClient, opts)
		if err != nil {
			log.Fatalf("annserve: %v", err)
		}
		mx = follower.Index()
		sx = mx.ShardedIndex
		log.Printf("annserve: loaded primary checkpoint: %d rows, cursor at lsn %d",
			sx.Len(), follower.Cursor())
	} else {
		sx, mx, err = buildOrLoad(*loadPath, *savePath, *kindFlag, *metric, *modesFlag,
			*shards, *n, *dim, *train, *seed,
			*mutable, *compactThresh, threshSet, *noAutoCompact, *walDir, walSync)
		if err != nil {
			log.Fatalf("annserve: %v", err)
		}
	}
	var eng server.Engine = sx
	if mx != nil {
		eng = mx
		defer mx.Close()
	}

	if len(peers) > 0 {
		set := replica.NewSet(peers, repClient, replica.SetOptions{})
		set.Start()
		defer set.Close()
		initial := *hedgeDelay
		note := ""
		if initial == 0 {
			// Adaptive: start conservative, then track the observed shard
			// p95 once the server's histograms have data.
			initial = 25 * time.Millisecond
			note = ", adapting to shard p95"
		}
		sx.SetShardHedger(replica.Hedger(set), initial)
		log.Printf("annserve: hedging onto %d peer(s) after %v%s", len(peers), initial, note)
	}

	cfg := server.Config{
		DefaultK:         *k,
		DefaultBudget:    *budget,
		BatchMaxSize:     *batchMax,
		MaxConcurrent:    *maxConc,
		SearchWorkers:    *workers,
		RequestTimeout:   *reqTimeout,
		MaxQueueDepth:    *maxQueue,
		DrainTimeout:     *drainGrace,
		SlowLogThreshold: *slowlogThresh,
		AccessLog:        *accessLog,
		EnablePprof:      *pprofFlag,

		QualitySampleRate:   *qualitySample,
		QualityWorkers:      *qualityWorkers,
		SLOLatencyThreshold: *sloLatency,
		SLOLatencyTarget:    *sloLatencyTgt,
		SLORecallTarget:     *sloRecallTgt,
	}
	if follower != nil {
		cfg.ReadyCheck = follower.Ready
		cfg.ReplicaOf = joinURL
	}
	srv := server.New(eng, cfg)

	if len(peers) > 0 && *hedgeDelay == 0 {
		ctrl := replica.StartDelayController(sx, srv.ShardLatencyP95,
			5*time.Second, time.Millisecond, time.Second)
		defer ctrl.Close()
	}
	if follower != nil {
		go func() {
			if err := follower.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("annserve: replication stopped: %v", err)
			}
		}()
	}

	err = srv.Serve(ctx, *addr, func(bound string) {
		log.Printf("annserve: serving %d points (query dim %d, modes %v, simd %s) on %s",
			sx.Len(), sx.QueryDim(), sx.Modes(), resinfer.SIMDLevel(), bound)
	})
	if err != nil {
		log.Fatalf("annserve: %v", err)
	}
}

// buildOrLoad resolves the served index from flags: either a saved file
// (format auto-detected from the magic: mutable, sharded or single), the
// recovered durable state of a WAL directory, or a fresh build over a
// synthetic dataset (onto which any checkpoint-less WAL records are
// replayed — the same seed rebuilds the same base byte for byte, HNSW
// graphs too, so recovery works before the first compaction checkpoint
// exists). It returns the sharded engine and, when the index is mutable,
// the MutableIndex that embeds it; a single file is served as one shard.
func buildOrLoad(loadPath, savePath, kindFlag, metric, modesFlag string,
	shards, n, dim, train int, seed int64,
	mutable bool, compactThresh int, threshSet, noAutoCompact bool,
	walDir string, walSync resinfer.WALSync) (*resinfer.ShardedIndex, *resinfer.MutableIndex, error) {

	// forLoad options leave CompactThreshold at 0 unless the flag was
	// given explicitly — LoadMutable/RecoverMutable then keep the
	// persisted value instead of silently resetting it to the default.
	mutOpts := func(index *resinfer.Options, forLoad bool) *resinfer.MutableOptions {
		o := &resinfer.MutableOptions{
			Index:              index,
			CompactThreshold:   compactThresh,
			DisableAutoCompact: noAutoCompact,
			WALDir:             walDir,
			WALSync:            walSync,
		}
		if forLoad && !threshSet {
			o.CompactThreshold = 0
		}
		return o
	}

	if loadPath != "" {
		format, err := sniffFormat(loadPath)
		if err != nil {
			return nil, nil, err
		}
		if walDir != "" && format != formatMutable {
			return nil, nil, fmt.Errorf("-wal-dir needs a mutable index; %s is not one", loadPath)
		}
		switch format {
		case formatMutable:
			log.Printf("annserve: loading mutable (streaming) index from %s", loadPath)
			mx, err := resinfer.LoadMutableFile(loadPath, mutOpts(nil, true))
			if err != nil {
				return nil, nil, err
			}
			logRecovery(mx)
			return mx.ShardedIndex, mx, nil
		case formatSharded:
			log.Printf("annserve: loading sharded index from %s", loadPath)
			sx, err := resinfer.LoadShardedFile(loadPath)
			return sx, nil, err
		default:
			log.Printf("annserve: loading index from %s", loadPath)
			ix, err := resinfer.LoadFile(loadPath)
			if err != nil {
				return nil, nil, err
			}
			return resinfer.SingleShard(ix), nil, nil
		}
	}
	if walDir != "" && !mutable {
		return nil, nil, fmt.Errorf("-wal-dir requires -mutable")
	}
	if walDir != "" {
		// A previous run's compaction checkpoint is the authoritative
		// state — recover it (plus the log tail) instead of rebuilding.
		mx, found, err := resinfer.RecoverMutable(mutOpts(nil, true))
		if err != nil {
			return nil, nil, err
		}
		if found {
			log.Printf("annserve: recovered mutable index from %s checkpoint", walDir)
			logRecovery(mx)
			return mx.ShardedIndex, mx, nil
		}
	}

	modes, err := parseModes(modesFlag)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("annserve: generating synthetic dataset n=%d dim=%d", n, dim)
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "annserve", N: n, Dim: dim, TrainQueries: train,
		VE32: 0.6, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	opts := &resinfer.Options{Metric: resinfer.MetricKind(metric), Seed: seed}
	kind := resinfer.IndexKind(kindFlag)
	if shards < 1 {
		shards = 1
	}

	start := time.Now()
	var sx *resinfer.ShardedIndex
	var mx *resinfer.MutableIndex
	if mutable {
		log.Printf("annserve: building mutable %d-shard %s index (compact threshold %d)",
			shards, kind, compactThresh)
		if mx, err = resinfer.NewMutable(ds.Data, kind, shards, mutOpts(opts, false)); err != nil {
			return nil, nil, err
		}
		logRecovery(mx)
		sx = mx.ShardedIndex
	} else {
		log.Printf("annserve: building %d %s shard(s)", shards, kind)
		if sx, err = resinfer.NewSharded(ds.Data, kind, shards, &resinfer.ShardOptions{Index: opts}); err != nil {
			return nil, nil, err
		}
	}
	for _, m := range modes {
		log.Printf("annserve: enabling %s", m)
		if err := sx.EnableWithTraining(m, ds.Train, opts); err != nil {
			return nil, nil, err
		}
	}
	log.Printf("annserve: built in %.1fs", time.Since(start).Seconds())
	if savePath != "" {
		// A mutable index saves its segments too; its embedded
		// ShardedIndex.SaveFile refuses to drop them.
		save := sx.SaveFile
		if mx != nil {
			save = mx.SaveFile
		}
		if err := save(savePath); err != nil {
			return nil, nil, err
		}
		log.Printf("annserve: saved to %s", savePath)
	}
	return sx, mx, nil
}

// logRecovery prints the recover-on-start banner: how much WAL history
// was replayed to bring the index back to its acknowledged state.
func logRecovery(mx *resinfer.MutableIndex) {
	rec := mx.WALRecovery()
	if !rec.Enabled {
		return
	}
	src := "fresh build"
	if rec.Snapshot != "" {
		src = rec.Snapshot
	}
	log.Printf("annserve: wal recovery: base=%s replayed %d upserts + %d deletes (torn segments: %d, lsn %d); %d rows live",
		src, rec.Upserts, rec.Deletes, rec.TornSegments, rec.LastLSN, mx.Len())
}

func parseModes(s string) ([]resinfer.Mode, error) {
	var out []resinfer.Mode
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := resinfer.ParseMode(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// fileFormat identifies which loader a saved index needs.
type fileFormat int

const (
	formatSingle fileFormat = iota
	formatSharded
	formatMutable
)

// sniffFormat peeks at the file magic to pick the right loader. The
// version digit is ignored so the check survives format bumps; the loader
// itself rejects versions it cannot read.
func sniffFormat(path string) (fileFormat, error) {
	f, err := os.Open(path)
	if err != nil {
		return formatSingle, err
	}
	defer f.Close()
	magic := make([]byte, 8)
	if _, err := io.ReadFull(f, magic); err != nil {
		return formatSingle, fmt.Errorf("reading magic of %s: %w", path, err)
	}
	switch string(magic) {
	case "RESSHARD":
		return formatSharded, nil
	default:
		if string(magic[:7]) == "RESSTRM" {
			return formatMutable, nil
		}
		return formatSingle, nil
	}
}

// Command serve runs the online rule-mining service: a daemon that ingests
// job-completion events over HTTP, continuously re-mines a sliding window,
// and answers operator queries with pruned keyword rule tables and rule
// drift — the serving-side counterpart of the batch cmd/armine.
//
// Endpoints:
//
//	POST /v1/jobs        ingest NDJSON (default) or CSV (Content-Type: text/csv)
//	GET  /v1/rules       current rules; ?keyword=failed&kind=cause for analyses,
//	                     ?sort=lift|support|confidence, ?min_lift= / ?min_support=
//	                     floors, ?offset=/?limit= pagination; ETag + Cache-Control
//	GET  /v1/drift       rules appeared/vanished between the last two snapshots
//	GET  /v1/drift/watch SSE push of drift events on every publish (?mode=poll
//	                     for long-poll; resume via Last-Event-ID = snapshot seq)
//	GET  /healthz        liveness plus snapshot age; 503 once draining begins
//	GET  /metrics        ingest/mining counters as flat JSON
//
// Example against a generated trace:
//
//	tracegen -trace pai -jobs 20000 -out /tmp/t
//	serve -addr :8080 -state-dir /var/lib/armine &
//	# join scheduler+node rows into NDJSON with your tool of choice, or
//	# post the scheduler CSV directly:
//	curl -sS -X POST -H 'Content-Type: text/csv' \
//	     --data-binary @/tmp/t/pai_scheduler.csv localhost:8080/v1/jobs
//	curl -sS 'localhost:8080/v1/rules?keyword=failed&kind=cause'
//
// With -state-dir the daemon is restartable without losing fitted state:
// the mining loop checkpoints the bin edges, activity tiers, prevalence
// counts, item catalog and the sliding window to an atomically replaced
// file (every -checkpoint-every mines and again when SIGTERM drains the
// queue), and the next start restores from it — same window, same rules,
// no re-bootstrap. -keep exempts item names (e.g. status=failed) from the
// online prevalence drop so the keyword under study cannot be deleted by a
// failure-heavy window.
//
// With -wal-dir every accepted event is additionally framed into a
// write-ahead log before it is acknowledged, and a restart replays the WAL
// tail on top of the checkpoint — a kill -9 between checkpoints loses
// nothing (-fsync always) or at most the last sync interval (-fsync
// interval, the default). -mine-timeout arms a watchdog that abandons a
// hung re-mine and keeps serving the last good snapshot, marked stale,
// while /healthz reports the degraded state.
//
// With -incremental the mining loop maintains its FP-tree across mines —
// weighted inserts for arriving jobs, weighted decrements along evicted
// paths — so steady-state re-mine cost is proportional to the jobs that
// arrived since the last mine rather than the window size; rules are
// identical, and /metrics' mine_incremental_total / mine_full_rebuild_total
// show how often the rank-drift/fragmentation fallback rebuilds from
// scratch. -pprof-addr exposes net/http/pprof on a separate listener for
// profiling the mine loop in production.
//
// With -spec generic the encoder is derived from flags instead of the
// canonical PAI shape: -numeric columns are quartile-binned (-zero /
// -spike subsets get their special bins), -tier columns are
// activity-tiered, -bool columns parse as booleans in CSV bodies, and
// -skip columns are ignored. -skip replaces a spec's own skip list only
// when given: under -spec pai the default keeps PAISpec's list, so the
// num_tasks field of joined PAI events is skipped rather than rejected.
//
// With -shards N (N > 1) the daemon becomes an in-process sharded
// multi-tenant deployment: events route to one of N independent shard
// miners by FNV-hashing the -tenant-field value (records without the field
// go to the reserved "default" tenant), each shard keeps its own window,
// encoder state and shard-<i> checkpoint/WAL subdirectories, and
// -tenant-quota caps accepted events per tenant per -quota-window. GET
// /v1/rules then serves the SON-merged global view — provably equal to
// mining the union window — and GET /v1/tenants/{id}/rules serves one
// tenant's shard view. /healthz and /metrics aggregate across shards;
// /metrics?format=prometheus emits per-tenant and per-shard counters in
// scrape format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, exposed only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	spec := flag.String("spec", "pai", "encoder spec: pai or generic")
	window := flag.Int("window", 5000, "sliding window size in jobs")
	minSupport := flag.Float64("min-support", 0.05, "minimum itemset support")
	minLift := flag.Float64("min-lift", 1.5, "minimum rule lift")
	maxLen := flag.Int("max-len", 5, "maximum itemset length")
	cLift := flag.Float64("c-lift", 1.5, "pruning lift slack C_lift")
	cSupp := flag.Float64("c-supp", 1.5, "pruning support slack C_supp")
	mineInterval := flag.Duration("mine-interval", 2*time.Second, "re-mine cadence")
	mineBatch := flag.Int("mine-batch", 1000, "re-mine after this many new jobs")
	mineWorkers := flag.Int("mine-workers", 0, "mining parallelism (0 = all cores, 1 = serial)")
	incremental := flag.Bool("incremental", false, "maintain the FP-tree across mines so steady-state mine cost tracks the ingest delta, not the window size (rules are identical; a rank-drift or fragmentation fallback rebuilds when needed)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiles (e.g. localhost:6060); empty disables")
	queue := flag.Int("queue", 8192, "ingest queue capacity (full queue => 429)")
	watchHistory := flag.Int("watch-history", 64, "drift events retained for /v1/drift/watch Last-Event-ID resume")
	bootstrap := flag.Int("bootstrap", 500, "jobs sampled before bin edges are fitted")
	stateDir := flag.String("state-dir", "", "directory for the durable checkpoint; empty disables checkpoint/restore")
	checkpointEvery := flag.Int("checkpoint-every", 1, "mines between checkpoints when -state-dir is set")
	walDir := flag.String("wal-dir", "", "directory for the write-ahead log of accepted events; empty disables the WAL")
	fsync := flag.String("fsync", "interval", "WAL durability: always (sync every append), interval, or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "WAL sync cadence under -fsync interval")
	mineTimeout := flag.Duration("mine-timeout", 0, "abandon a mine running longer than this and serve the last snapshot as stale (0 disables)")
	keep := flag.String("keep", "", "comma-separated item names exempt from the prevalence drop (e.g. status=failed)")
	numeric := flag.String("numeric", "", "generic spec: comma-separated numeric fields to quartile-bin")
	zeros := flag.String("zero", "", "generic spec: numeric fields given a zero bin")
	spikes := flag.String("spike", "", "generic spec: numeric fields given a Std spike bin")
	tiers := flag.String("tier", "", "generic spec: fields to activity-tier")
	bools := flag.String("bool", "", "generic spec: fields parsed as booleans in CSV bodies")
	skips := flag.String("skip", "", "fields excluded from encoding; empty keeps the spec's own list (pai: job_id,submit_s,num_tasks; generic: job_id,submit_s)")
	shards := flag.Int("shards", 1, "shard miner count; >1 serves a sharded multi-tenant deployment")
	tenantField := flag.String("tenant-field", "tenant", "event field carrying the tenant key in sharded mode")
	tenantQuota := flag.Int("tenant-quota", 0, "max accepted events per tenant per -quota-window; 0 disables quotas")
	quotaWindow := flag.Duration("quota-window", time.Minute, "tenant quota accounting window")
	flag.Parse()

	cfg, err := buildConfig(options{
		spec: *spec, window: *window,
		minSupport: *minSupport, minLift: *minLift, maxLen: *maxLen,
		cLift: *cLift, cSupp: *cSupp,
		mineInterval: *mineInterval, mineBatch: *mineBatch, mineWorkers: *mineWorkers,
		incremental: *incremental,
		queue:       *queue, bootstrap: *bootstrap, watchHistory: *watchHistory,
		stateDir: *stateDir, checkpointEvery: *checkpointEvery, keep: splitList(*keep),
		walDir: *walDir, fsync: *fsync, fsyncInterval: *fsyncInterval, mineTimeout: *mineTimeout,
		numeric: splitList(*numeric), zeros: splitList(*zeros), spikes: splitList(*spikes),
		tiers: splitList(*tiers), bools: splitList(*bools), skips: splitList(*skips),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener, never the
		// service address: importing net/http/pprof registers only on
		// http.DefaultServeMux, which the API handlers don't use.
		go func() {
			fmt.Printf("serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "serve: pprof listener:", err)
			}
		}()
	}
	// Any multi-tenant knob selects cluster mode: quotas need the tenant
	// router even with a single shard behind it.
	if *shards > 1 || *tenantQuota > 0 {
		err = runCluster(*addr, shard.Config{
			Shards:      *shards,
			TenantField: *tenantField,
			QuotaLimit:  *tenantQuota,
			QuotaWindow: *quotaWindow,
			Shard:       cfg,
		})
	} else {
		err = run(*addr, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

type options struct {
	spec                                 string
	window, maxLen, mineBatch            int
	queue, bootstrap, mineWorkers        int
	checkpointEvery, watchHistory        int
	incremental                          bool
	minSupport, minLift, cLift, cSupp    float64
	mineInterval, mineTimeout            time.Duration
	fsyncInterval                        time.Duration
	stateDir, walDir, fsync              string
	keep                                 []string
	numeric, zeros, spikes, tiers, bools []string
	skips                                []string
}

func buildConfig(o options) (server.Config, error) {
	cfg := server.Config{
		WindowSize:      o.window,
		MinSupport:      o.minSupport,
		MinLift:         o.minLift,
		MaxLen:          o.maxLen,
		CLift:           o.cLift,
		CSupp:           o.cSupp,
		Bootstrap:       o.bootstrap,
		MineInterval:    o.mineInterval,
		MineBatch:       o.mineBatch,
		QueueSize:       o.queue,
		WatchHistory:    o.watchHistory,
		Workers:         o.mineWorkers,
		Incremental:     o.incremental,
		StateDir:        o.stateDir,
		CheckpointEvery: o.checkpointEvery,
		KeepItems:       o.keep,
		WALDir:          o.walDir,
		Fsync:           o.fsync,
		FsyncInterval:   o.fsyncInterval,
		MineTimeout:     o.mineTimeout,
	}
	switch o.spec {
	case "pai":
		cfg.Spec = server.PAISpec()
		if len(o.skips) > 0 {
			cfg.Spec.Skip = o.skips
		}
	case "generic":
		cfg.Spec = genericSpec(o)
	default:
		return server.Config{}, fmt.Errorf("unknown spec %q (want pai or generic)", o.spec)
	}
	return cfg, nil
}

// genericSpec derives an encoder spec from flags, mirroring armine's auto
// pipeline: quartile bins everywhere, zero/spike bins and tiers where asked.
func genericSpec(o options) server.Spec {
	zero := make(map[string]bool, len(o.zeros))
	for _, z := range o.zeros {
		zero[z] = true
	}
	spike := make(map[string]bool, len(o.spikes))
	for _, s := range o.spikes {
		spike[s] = true
	}
	spec := server.Spec{Bools: o.bools, Skip: o.skips}
	if len(spec.Skip) == 0 {
		spec.Skip = []string{"job_id", "submit_s"}
	}
	for _, f := range o.numeric {
		n := server.NumericSpec{Field: f, ZeroSpecial: zero[f]}
		if spike[f] {
			n.SpikeThreshold = 0.3
		}
		spec.Numeric = append(spec.Numeric, n)
	}
	for _, t := range o.tiers {
		spec.Tiers = append(spec.Tiers, server.TierSpec{Field: t})
	}
	return spec
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runCluster is run for sharded mode: same listen/drain lifecycle, with the
// cluster fanning the shutdown out to every shard miner.
func runCluster(addr string, ccfg shard.Config) error {
	c, err := shard.New(ccfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: addr, Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Printf("serve: listening on %s (%d shards, tenant field %q)\n", addr, c.Shards(), ccfg.TenantField)
	if ccfg.QuotaLimit > 0 {
		fmt.Printf("serve: tenant quota %d events per %s\n", ccfg.QuotaLimit, ccfg.QuotaWindow)
	}
	if ccfg.Shard.StateDir != "" {
		fmt.Printf("serve: durable per-shard state under %s\n", ccfg.Shard.StateDir)
	}
	if ccfg.Shard.WALDir != "" {
		fmt.Printf("serve: per-shard write-ahead logs under %s (fsync=%s)\n", ccfg.Shard.WALDir, ccfg.Shard.Fsync)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("serve: shutting down, draining every shard")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Drain before Shutdown: stopping the cluster closes the watch hubs,
	// which ends the open /v1/drift/watch streams — otherwise Shutdown
	// would wait its whole timeout on them.
	if err := c.Stop(shutdownCtx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if snap, _ := c.Merged(); snap != nil {
		fmt.Printf("serve: final merged snapshot seq=%d rules=%d window=%d observed=%d\n",
			snap.Seq, len(snap.View.Rules), snap.View.WindowLen, snap.View.Total)
	}
	return nil
}

func run(addr string, cfg server.Config) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Printf("serve: listening on %s (window %d, mine every %s or %d jobs)\n",
		addr, cfg.WindowSize, cfg.MineInterval, cfg.MineBatch)
	if cfg.StateDir != "" {
		fmt.Printf("serve: durable state in %s (checkpoint every %d mines and at drain)\n",
			cfg.StateDir, cfg.CheckpointEvery)
	}
	if cfg.WALDir != "" {
		fmt.Printf("serve: write-ahead log in %s (fsync=%s)\n", cfg.WALDir, cfg.Fsync)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("serve: shutting down, draining ingest queue")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Drain before Shutdown: Stop closes the watch hub, ending the open
	// /v1/drift/watch streams — otherwise Shutdown would wait its whole
	// timeout on them.
	if err := s.Stop(shutdownCtx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if snap := s.Snapshot(); snap != nil {
		fmt.Printf("serve: final snapshot seq=%d rules=%d window=%d observed=%d\n",
			snap.Seq, len(snap.View.Rules), snap.View.WindowLen, snap.View.Total)
	}
	return nil
}

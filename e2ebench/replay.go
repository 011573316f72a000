package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/son"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transaction"
	"repro/internal/wal"
)

// The traced run replays a workload's inputs in-process through the public
// function of each layer, in the order the serving loop calls them, with a
// span around every call. Spans inside the program are left to the program.

// walAlwaysCap bounds the records appended under the per-record fsync
// policy, whose cost is the disk's sync latency, not the record count.
const walAlwaysCap = 2000

// shardReplayCap bounds the records fed to the replay cluster, which
// re-merges on every shard publish.
const shardReplayCap = 4000

// replayStream is the record sequence one miner consumed in the run.
type replayStream struct {
	w         serverWorkload
	events    []server.Event
	bodies    []replayBody
	seedState string // checkpoint dir this miner restored from
	seedWAL   string // its seeded WAL dir
	base      int    // the miner's observed total at run start
	bounds    []int  // stream record counts at which the run published, ascending
	e2e       []time.Duration
	reads     int // replayed reads per snapshot
	mix       []readKind
}

// replayBody is one request body as sent, and the range of stream events
// it carried.
type replayBody struct {
	raw    []byte
	lines  int
	lo, hi int
}

// streamOf rebuilds the replayed stream of a server run: every accepted
// record in acknowledgement order, with the batch boundaries and
// end-to-end times the run observed.
func streamOf(r *serverRun) *replayStream {
	s := &replayStream{w: r.w, base: r.base, mix: r.w.mix}
	s.reads = len(s.mix)
	s.seedState, s.seedWAL = filepath.Join(r.seedDir, "state"), filepath.Join(r.seedDir, "wal")
	lineOf := make([][]byte, len(r.in.run))
	for _, b := range r.in.bodies {
		for k, l := range b.lines {
			lineOf[b.first+k] = l
		}
	}
	for _, a := range r.ing.acks {
		lines := lineOf[a.first : a.first+a.n]
		rb := replayBody{raw: bytes.Join(lines, []byte{'\n'}), lines: a.n, lo: len(s.events)}
		s.events = append(s.events, r.in.run[a.first:a.first+a.n]...)
		rb.hi = len(s.events)
		s.bodies = append(s.bodies, rb)
	}
	for _, b := range r.batches {
		if b.upto <= len(s.events) && (len(s.bounds) == 0 || b.upto > s.bounds[len(s.bounds)-1]) {
			s.bounds = append(s.bounds, b.upto)
			s.e2e = append(s.e2e, b.e2e)
		}
	}
	// Replay the reads the run made per snapshot, up to three turns of
	// the mix: enough for the analysis cache to see repeats.
	if r.mines > 0 {
		s.reads = min(3*len(s.mix), max(2, len(r.rd.lat)/r.mines))
	}
	return s
}

// batchOf is the 1-based batch that publishes stream record i (0-based),
// or 0 when no observed publish covers it.
func (s *replayStream) batchOf(i int) int {
	for b, upto := range s.bounds {
		if i < upto {
			return b + 1
		}
	}
	return 0
}

// bodyBatch is the batch a body's last record of this stream belongs to,
// and whether the body carried that batch's last record, which is what
// makes its ingest steps block the batch's publish.
func (s *replayStream) bodyBatch(b replayBody) (int, bool) {
	batch := s.batchOf(max(b.lo, b.hi-1))
	return batch, batch > 0 && b.lo < s.bounds[batch-1] && s.bounds[batch-1] <= b.hi
}

// countingFS counts the bytes written and the fsyncs issued through it.
type countingFS struct {
	faultinject.FS
	bytes, syncs atomic.Int64
}

type countingFile struct {
	faultinject.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultinject.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// layerRun accumulates the per-layer metrics of one traced replay.
type layerRun struct {
	e  *env
	tr *tracer
	m  map[string]metric
}

func (l *layerRun) put(name, unit string, v float64) { l.m[name] = metric{Value: v, Unit: unit} }

func perRecord(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func medianMS(ds []time.Duration) float64 { return median(durationsMS(ds)) }

// replayServerLayers runs decode, enqueue, WAL, restore, the stream
// pipeline, queries and the shard layer over one stream.
func (l *layerRun) replayServerLayers(s *replayStream) error {
	tr := l.tr
	records := 0
	for _, b := range s.bodies {
		records += b.lines
	}

	// server: Decoder.Decode on the bodies as sent.
	dec := server.NewDecoder(server.PAISpec())
	var decodeErr error
	for _, b := range s.bodies {
		batch, trigger := s.bodyBatch(b)
		tr.do("server.decode", 0, batch, trigger, func() {
			_, err := dec.Decode("application/x-ndjson", bytes.NewReader(b.raw),
				func(int, server.Event) bool { return true },
				func(line int, err error) { decodeErr = fmt.Errorf("line %d: %w", line, err) })
			if err != nil {
				decodeErr = err
			}
		})
	}
	if decodeErr != nil {
		return fmt.Errorf("replay decode: %w", decodeErr)
	}
	l.put("server.decode_ns_per_record", "ns", perRecord(tr.total("server.decode"), records))

	// server: Enqueue without a WAL, on a cold server that does not mine
	// until Stop.
	enq, err := server.New(noMining(s.w.config("", ""), len(s.events)))
	if err != nil {
		return err
	}
	for _, b := range s.bodies {
		batch, trigger := s.bodyBatch(b)
		tr.do("server.enqueue", 0, batch, trigger, func() {
			for _, ev := range s.events[b.lo:b.hi] {
				if err == nil {
					err = enqueue(enq.Enqueue, ev)
				}
			}
		})
	}
	if err != nil {
		return err
	}
	l.put("server.enqueue_ns_per_record", "ns", perRecord(tr.total("server.enqueue"), len(s.events)))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := enq.Stop(ctx); err != nil {
		return err
	}

	// server.New on copies of the seeded dirs, with a window that holds the
	// whole stream: its final view yields the encoded transactions, since
	// the online encoder is unexported.
	capDir, err := l.e.dir("replay-capture")
	if err != nil {
		return err
	}
	if err := copyDir(s.seedState, filepath.Join(capDir, "state")); err != nil {
		return err
	}
	if err := copyDir(s.seedWAL, filepath.Join(capDir, "wal")); err != nil {
		return err
	}
	cfg := noMining(s.w.config(filepath.Join(capDir, "state"), filepath.Join(capDir, "wal")), len(s.events))
	cfg.Fsync = "never"
	cfg.WindowSize = s.w.window + s.w.walTail + len(s.events)
	var srv *server.Server
	tr.do("server.restore", 0, 0, false, func() { srv, err = server.New(cfg) })
	if err != nil {
		return err
	}
	l.put("server.restore_ms", "ms", ms(tr.total("server.restore")))
	for _, ev := range s.events {
		if err := enqueue(srv.Enqueue, ev); err != nil {
			return err
		}
	}
	if err := srv.Stop(ctx); err != nil {
		return err
	}
	view := srv.Snapshot().View
	if err := os.RemoveAll(capDir); err != nil {
		return err
	}
	n := len(s.events)
	if len(view.Window) < n || view.Total-n != s.base {
		return fmt.Errorf("replay capture: window %d total %d, want %d records after total %d", len(view.Window), view.Total, n, s.base)
	}
	names := make([][]string, n)
	for i, txn := range view.Window[len(view.Window)-n:] {
		names[i] = view.Catalog.Names(txn)
	}
	initial := view.Window[max(0, len(view.Window)-n-s.w.window) : len(view.Window)-n]

	if err := l.replayWAL(s); err != nil {
		return err
	}
	if err := l.replayStreamLayers(s, view.Catalog, initial, names); err != nil {
		return err
	}
	return l.replayShard(s)
}

// replayWAL appends the stream's first records under the durable policy,
// fsync always, then times a full replay of a WAL.
func (l *layerRun) replayWAL(s *replayStream) error {
	dir, err := l.e.dir("replay-wal")
	if err != nil {
		return err
	}
	cfs := &countingFS{FS: faultinject.OS()}
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways, FS: cfs})
	if err != nil {
		return err
	}
	limit := min(len(s.events), walAlwaysCap)
	payloads := make([][]byte, limit)
	for i := range payloads {
		if payloads[i], err = json.Marshal(s.events[i]); err != nil {
			return err
		}
	}
	var appends []time.Duration
	for _, b := range s.bodies {
		if b.lo >= limit {
			break
		}
		tr := l.tr
		batch, trigger := s.bodyBatch(b)
		tr.do("wal.append", 0, batch, trigger, func() {
			for i := b.lo; i < min(b.hi, limit) && err == nil; i++ {
				t := time.Now()
				_, err = log.Append(payloads[i])
				appends = append(appends, time.Since(t))
			}
		})
		if err != nil {
			return err
		}
	}
	if err := log.Sync(); err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	us := make([]float64, len(appends))
	for i, d := range appends {
		us[i] = float64(d.Nanoseconds()) / 1e3
	}
	l.put("wal.append_us_p50", "us", median(us))
	l.put("wal.append_us_p99", "us", tailQuantile(us))
	l.put("wal.fsyncs_per_record", "ratio", float64(cfs.syncs.Load())/float64(max(1, limit)))
	l.put("wal.bytes_per_record", "bytes", float64(cfs.bytes.Load())/float64(max(1, limit)))

	// Replay the seeded tail when the workload has one, else the log just
	// written.
	src := dir
	if s.w.walTail > 0 {
		src = s.seedWAL
	}
	var replayed int
	l.tr.do("wal.replay", 0, 0, false, func() {
		var r *wal.WAL
		if r, err = wal.Open(wal.Options{Dir: src, Sync: wal.SyncNever}); err != nil {
			return
		}
		err = r.Replay(1, func(uint64, []byte) error { replayed++; return nil })
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	if replayed == 0 {
		return fmt.Errorf("replayed WAL %s is empty", src)
	}
	l.put("wal.replay_ms", "ms", ms(l.tr.total("wal.replay")))
	return os.RemoveAll(dir)
}

// replayStreamLayers observes the stream into a miner restored to the
// run's starting window and, at every observed publish, captures, mines,
// diffs, indexes and publishes as the serving loop does; then decomposes
// each mine into FP-Growth and rule generation and replays the read mix
// against the snapshot.
func (l *layerRun) replayStreamLayers(s *replayStream, catalog *itemset.Catalog, initial []itemset.Set, names [][]string) error {
	tr := l.tr
	cfg := s.w.config("", "")
	m, err := stream.New(catalog.Clone(), stream.Config{WindowSize: cfg.WindowSize, MinSupport: cfg.MinSupport, MaxLen: cfg.MaxLen, MinLift: cfg.MinLift})
	if err != nil {
		return err
	}
	if err := m.RestoreWindow(initial, s.base); err != nil {
		return err
	}
	hub := server.NewWatchHub(64)
	defer hub.Close()
	var prev *server.Snapshot
	var mines, diffs, indexes, publishes, fps, gens []time.Duration
	var rulesN, deltaN, itemsets, genRules []float64
	var kwLat, sortLat []time.Duration
	var respBytes []float64
	var hits, misses int64
	batch := func(b int) {
		var pv *stream.PendingView
		var view *stream.View
		var delta stream.Delta
		var ix *server.RuleIndex
		tr.do("stream.capture", 0, b, true, func() { pv = m.BeginView() })
		mines = append(mines, tr.do("stream.mine", 0, b, true, func() { view = pv.Mine() }))
		var prevRules []rules.Rule
		if prev != nil {
			prevRules = prev.View.Rules
		}
		diffs = append(diffs, tr.do("stream.diff", 0, b, true, func() { delta = stream.Diff(prevRules, view.Rules) }))
		indexes = append(indexes, tr.do("server.index_build", 0, b, true, func() { ix = server.NewRuleIndex(view) }))
		snap := &server.Snapshot{Seq: int64(b), MinedAt: time.Now(), View: view, Index: ix, Delta: delta}
		if prev != nil {
			snap.PrevSeq = prev.Seq
		}
		publishes = append(publishes, tr.do("server.watch_publish", 0, b, true, func() { hub.Publish(snap) }))
		prev = snap
		rulesN = append(rulesN, float64(len(view.Rules)))
		deltaN = append(deltaN, float64(len(delta.Appeared)+len(delta.Vanished)))

		// Not on the publish path: the same window through the mining
		// layers' own entry points.
		db := transaction.NewDB(view.Catalog.Clone())
		for _, txn := range view.Window {
			db.AddCanonical(txn)
		}
		minCount := max(1, int(math.Ceil(cfg.MinSupport*float64(db.Len()))))
		var freq []itemset.Frequent
		fps = append(fps, tr.do("fpgrowth.mine", 0, b, false, func() {
			freq = fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: cfg.MaxLen})
		}))
		var rs []rules.Rule
		gens = append(gens, tr.do("rules.generate", 0, b, false, func() {
			rs = rules.Generate(freq, db.Len(), rules.Options{MinLift: cfg.MinLift})
		}))
		itemsets = append(itemsets, float64(len(freq)))
		genRules = append(genRules, float64(len(rs)))

		for k := 0; k < s.reads; k++ {
			rk := s.mix[k%len(s.mix)]
			d, size := replayRead(tr, b, snap, rk)
			respBytes = append(respBytes, float64(size))
			switch {
			case strings.Contains(rk.path, "keyword=") && strings.Contains(rk.path, "/rules") && !rk.revalidate:
				kwLat = append(kwLat, d)
			case strings.Contains(rk.path, "sort="):
				sortLat = append(sortLat, d)
			}
		}
		h, mi := ix.CacheStats()
		hits += h
		misses += mi
	}

	next := 0
	// Only the segment that ends at a batch boundary blocks that batch;
	// earlier records were observed while the previous mine ran.
	observe := func(lo, hi, b int, blocking bool) {
		if hi > lo {
			tr.do("stream.observe", 0, b, blocking, func() {
				for _, items := range names[lo:hi] {
					m.ObserveNames(items...)
				}
			})
		}
	}
	for _, body := range s.bodies {
		lo := body.lo
		for next < len(s.bounds) && s.bounds[next] <= body.hi {
			observe(lo, s.bounds[next], next+1, true)
			lo = s.bounds[next]
			batch(next + 1)
			next++
		}
		batch, _ := s.bodyBatch(body)
		observe(lo, body.hi, batch, false)
	}
	if len(mines) == 0 {
		return fmt.Errorf("replay observed no publish boundary")
	}
	l.put("stream.observe_ns_per_txn", "ns", perRecord(tr.total("stream.observe"), len(names)))
	l.put("stream.capture_ms", "ms", medianMS(tr.durations("stream.capture")))
	l.put("stream.mine_ms", "ms", medianMS(mines))
	l.put("stream.diff_ms", "ms", medianMS(diffs))
	l.put("stream.rules_per_snapshot", "count", median(rulesN))
	l.put("stream.delta_rules", "count", median(deltaN))
	l.put("fpgrowth.mine_ms", "ms", medianMS(fps))
	l.put("fpgrowth.itemsets", "count", median(itemsets))
	l.put("rules.generate_ms", "ms", medianMS(gens))
	l.put("rules.count", "count", median(genRules))
	l.put("server.index_build_ms", "ms", medianMS(indexes))
	l.put("server.watch_publish_us", "us", medianMS(publishes)*1e3)
	l.put("server.publish_over_mine", "ratio", (medianMS(diffs)+medianMS(indexes)+medianMS(publishes))/medianMS(mines))
	l.put("server.query_keyword_us", "us", medianMS(kwLat)*1e3)
	l.put("server.query_sort_us", "us", medianMS(sortLat)*1e3)
	l.put("server.keyword_cache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	l.put("server.response_bytes", "bytes", median(respBytes))
	return nil
}

// replayRead answers one read of the mix from snap through the shared
// read path and returns its latency and response size.
func replayRead(tr *tracer, b int, snap *server.Snapshot, rk readKind) (time.Duration, int) {
	req := httptest.NewRequest(http.MethodGet, rk.path, nil)
	if rk.revalidate {
		req.Header.Set("If-None-Match", server.SnapshotETag(snap))
	}
	rec := httptest.NewRecorder()
	d := tr.do("server.query", 0, b, false, func() {
		if strings.HasPrefix(rk.path, "/v1/drift") {
			server.WriteDrift(rec, req, snap, server.DriftParams{})
		} else {
			server.WriteRules(rec, req, snap, server.RulesParams{Shard: -1})
		}
	})
	return d, rec.Body.Len()
}

// replayShard routes the stream's records through a three-shard cluster,
// timing the routing, each merged read after a shard publish, and the SON
// merge of the final shard windows.
func (l *layerRun) replayShard(s *replayStream) error {
	tr := l.tr
	cfg := s.w.config("", "")
	cfg.WindowSize = max(1, s.w.window/3)
	c, err := shard.New(shard.Config{Shards: 3, TenantField: tenantField, Shard: cfg})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer func() { _ = c.Stop(ctx) }()
	events := s.events[:min(len(s.events), shardReplayCap)]
	tr.do("shard.route", 0, 0, false, func() {
		for _, ev := range events {
			t, err := c.Tenant(ev)
			if err == nil {
				_ = c.ShardFor(t)
			}
		}
	})
	l.put("shard.route_ns_per_record", "ns", perRecord(tr.total("shard.route"), len(events)))

	// Records are fed at the pace the shards mine them: whenever a shard
	// has been routed another mine batch, the feed waits for that shard to
	// publish and then reads the merged view, as a reader following the
	// publish would.
	seq := func(k int) int64 {
		if snap := c.Shard(k).Snapshot(); snap != nil {
			return snap.Seq
		}
		return 0
	}
	routed := make([]int, 3)
	seen := map[int64]bool{}
	var merges []time.Duration
	for _, ev := range events {
		t, err := c.Tenant(ev)
		if err != nil {
			return err
		}
		k := c.ShardFor(t)
		before := seq(k)
		if err := enqueue(c.Ingest, ev); err != nil {
			return err
		}
		if routed[k]++; routed[k]%mineBatch != 0 {
			continue
		}
		for deadline := time.Now().Add(2 * mineInterval); seq(k) == before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		var snap *server.Snapshot
		merges = append(merges, tr.do("shard.merge", 0, 0, false, func() { snap, _ = c.Merged() }))
		if snap != nil {
			seen[snap.Seq] = true
		}
	}
	if err := c.Stop(ctx); err != nil {
		return err
	}
	final, _ := c.Merged()
	if final == nil {
		return fmt.Errorf("replay cluster published no merged snapshot")
	}
	l.put("shard.merge_ms", "ms", medianMS(merges))
	l.put("shard.merges_run", "count", float64(final.Seq))
	l.put("shard.merge_useful_ratio", "ratio", float64(len(seen))/float64(final.Seq))

	cat := itemset.NewCatalog()
	var dbs []*transaction.DB
	total := 0
	for k := 0; k < 3; k++ {
		db := transaction.NewDB(cat)
		if snap := c.Shard(k).Snapshot(); snap != nil {
			for _, txn := range snap.View.Window {
				db.AddNames(snap.View.Catalog.Names(txn)...)
			}
		}
		total += db.Len()
		dbs = append(dbs, db)
	}
	minCount := max(1, int(math.Ceil(cfg.MinSupport*float64(total))))
	l.put("son.mine_shards_ms", "ms", ms(tr.do("son.mine_shards", 0, 0, false, func() {
		son.MineShards(dbs, son.Options{MinCount: minCount, MaxLen: cfg.MaxLen})
	})))
	return nil
}

// replayOffline runs the paper pipeline's layers on trace files in dir:
// load and join, preprocess, encode, mine, generate and both keyword
// analyses. With paperNames the mining spans feed fpgrowth.* and rules.*;
// otherwise those metrics come from the stream replay.
func (l *layerRun) replayOffline(dir string, names []string, paperNames bool) (map[string]time.Duration, error) {
	tr := l.tr
	fpName, genName := "core.fpgrowth", "core.generate"
	if paperNames {
		fpName, genName = "fpgrowth.mine", "rules.generate"
	}
	perAnalysis := map[string]time.Duration{}
	var itemsets, ruleCount []float64
	for _, name := range names {
		var shared time.Duration
		var joined, pre *dataset.Frame
		var err error
		shared += tr.do("dataset.load_join", 0, 0, false, func() {
			var t *trace.Trace
			if t, err = trace.Load(dir, name); err == nil {
				joined, err = t.Join()
			}
		})
		if err != nil {
			return nil, err
		}
		p := pipelineFor(name)
		shared += tr.do("core.preprocess", 0, 0, false, func() { pre, err = p.Preprocess(joined) })
		if err != nil {
			return nil, err
		}
		var db *transaction.DB
		shared += tr.do("transaction.encode", 0, 0, false, func() {
			db, err = transaction.Encode(pre, transaction.EncodeOptions{MaxPrevalence: p.Opts.MaxPrevalence, KeepAlways: p.Opts.KeepItems})
		})
		if err != nil {
			return nil, err
		}
		minCount := max(1, int(math.Ceil(p.Opts.MinSupport*float64(db.Len()))))
		var freq []itemset.Frequent
		shared += tr.do(fpName, 0, 0, false, func() {
			freq = fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: p.Opts.MaxItemsetLen})
		})
		var rs []rules.Rule
		shared += tr.do(genName, 0, 0, false, func() {
			rs = rules.Generate(freq, db.Len(), rules.Options{MinLift: p.Opts.MinLift})
		})
		itemsets = append(itemsets, float64(len(freq)))
		ruleCount = append(ruleCount, float64(len(rs)))
		// The keyword analyses run on the pipeline's own result, with its
		// rules generated before timing; the replayed mining must match it.
		res, err := p.Mine(joined)
		if err != nil {
			return nil, err
		}
		if len(res.Frequent) != len(freq) || len(res.Rules()) != len(rs) {
			return nil, fmt.Errorf("%s: replayed mining found %d itemsets and %d rules, core.Pipeline %d and %d",
				name, len(freq), len(rs), len(res.Frequent), len(res.Rules()))
		}
		for _, kw := range offlineKeywords {
			d := tr.do("pruning.analyze", 0, 0, false, func() { _, err = res.Analyze(kw) })
			if err != nil {
				return nil, err
			}
			perAnalysis[name+"/"+kw] = shared + d
		}
	}
	l.put("dataset.load_join_ms", "ms", medianMS(tr.durations("dataset.load_join")))
	l.put("core.preprocess_ms", "ms", medianMS(tr.durations("core.preprocess")))
	l.put("transaction.encode_ms", "ms", medianMS(tr.durations("transaction.encode")))
	l.put("pruning.analyze_ms", "ms", medianMS(tr.durations("pruning.analyze")))
	if paperNames {
		l.put("fpgrowth.mine_ms", "ms", medianMS(tr.durations(fpName)))
		l.put("fpgrowth.itemsets", "count", median(itemsets))
		l.put("rules.generate_ms", "ms", medianMS(tr.durations(genName)))
		l.put("rules.count", "count", median(ruleCount))
	}
	return perAnalysis, nil
}

// finish writes the span file and its summary, and reports the median
// per-batch remainder. blocking overrides the per-batch sums of blocking
// spans when batches are not spans of the replay (offline analyses).
func (l *layerRun) finish(workload string, seed int64, e2e, blocking map[int]time.Duration) error {
	sum := summarize(l.tr.spans, e2e, blocking)
	var rem []float64
	for _, b := range sum.Batches {
		rem = append(rem, b.RemainderMS)
	}
	if len(rem) == 0 {
		return fmt.Errorf("no batch has an end-to-end time to attribute")
	}
	l.put("trace.unaccounted_ms", "ms", median(rem))
	if err := os.MkdirAll(l.e.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(l.e.out, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := l.tr.write(stem+".spans.jsonl", stem+".summary.json", sum); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: spans in %s.spans.jsonl, self times and per-batch remainders in %s.summary.json\n", stem, stem)
	return nil
}

// traceServer produces the per-layer metrics of a server workload from its
// end-to-end run and an in-process replay of the same records.
func traceServer(e *env, r *serverRun, seed int64) (map[string]metric, error) {
	l := &layerRun{e: e, tr: newTracer(), m: map[string]metric{}}
	s := streamOf(r)
	if err := l.replayServerLayers(s); err != nil {
		return nil, err
	}
	l.put("server.queue_depth_max", "count", float64(r.mon.queueMax))
	l.put("server.throttled", "count", float64(num(r.metricsAt, "ingest_throttled")))
	l.put("server.mines", "count", float64(r.mines))

	dir, err := e.dir("replay-offline")
	if err != nil {
		return nil, err
	}
	if err := r.in.trace.Save(dir); err != nil {
		return nil, err
	}
	if _, err := l.replayOffline(dir, []string{r.in.trace.Name}, false); err != nil {
		return nil, err
	}
	e2e := map[int]time.Duration{}
	for i, d := range s.e2e {
		e2e[i+1] = d
	}
	return l.m, l.finish(r.w.name, seed, e2e, nil)
}

// traceOffline produces the per-layer metrics of offline-paper: the
// paper pipeline's layers on the run's own trace files, and the serving
// layers on a PAI stream from the same seed in pai-steady's configuration,
// mined every 1000 records.
func traceOffline(e *env, r *offlineRun, seed int64) (map[string]metric, error) {
	l := &layerRun{e: e, tr: newTracer(), m: map[string]metric{}}
	per, err := l.replayOffline(r.dir, offlineTraces, true)
	if err != nil {
		return nil, err
	}
	w := serverWorkloads["pai-steady"]
	in, err := makeInputs(seed, w.seedEvents+w.walTail, 10000, w.bodyLines)
	if err != nil {
		return nil, err
	}
	seedDir, err := e.dir("replay-seed")
	if err != nil {
		return nil, err
	}
	if err := seedState(w, seedDir, in.seed); err != nil {
		return nil, err
	}
	s := &replayStream{
		w: w, events: in.run, seedState: filepath.Join(seedDir, "state"), seedWAL: filepath.Join(seedDir, "wal"),
		base: len(in.seed), mix: w.mix, reads: len(w.mix),
	}
	for _, b := range in.bodies {
		s.bodies = append(s.bodies, replayBody{raw: b.bytes(0), lines: len(b.lines), lo: b.first, hi: b.first + len(b.lines)})
	}
	for upto := mineBatch; upto <= len(in.run); upto += mineBatch {
		s.bounds = append(s.bounds, upto)
	}
	// fpgrowth.* and rules.* keep the paper pipeline's values: the stream
	// replay's decomposition is recorded as spans only.
	paper := map[string]metric{}
	for _, k := range []string{"fpgrowth.mine_ms", "fpgrowth.itemsets", "rules.generate_ms", "rules.count"} {
		paper[k] = l.m[k]
	}
	if err := l.replayServerLayers(s); err != nil {
		return nil, err
	}
	for k, v := range paper {
		l.m[k] = v
	}
	l.put("server.queue_depth_max", "count", 0)
	l.put("server.throttled", "count", 0)
	l.put("server.mines", "count", 0)

	// Per-analysis attribution: each cmd/armine analysis against the sum
	// of the replayed layer calls it repeats.
	// r.acks holds the analyses in pass order: trace by trace, keyword by
	// keyword.
	e2e, blocking := map[int]time.Duration{}, map[int]time.Duration{}
	per1 := len(offlineTraces) * len(offlineKeywords)
	for i := 0; i < per1; i++ {
		var walls []time.Duration
		for j := i; j < len(r.acks); j += per1 {
			walls = append(walls, r.acks[j])
		}
		name, kw := offlineTraces[i/len(offlineKeywords)], offlineKeywords[i%len(offlineKeywords)]
		e2e[i+1] = time.Duration(medianMS(walls) * float64(time.Millisecond))
		blocking[i+1] = per[name+"/"+kw]
	}
	return l.m, l.finish("offline-paper", seed, e2e, blocking)
}

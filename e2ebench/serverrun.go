package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/rules"
	"repro/internal/server"
)

// setupRepeats is how many times each run starts the server from the
// seeded state; setup_s is the median, and the last start serves the run.
const setupRepeats = 3

// setupBefore is how many of the starts happen before the run.
const setupBefore = 2

// coolDown bounds the wait for the measured window's records to be
// published, and the final drain.
const coolDown = 30 * time.Second

var serverWorkloads = map[string]serverWorkload{
	// Deployment defaults, open-loop ingest at a quarter of what the
	// server sustains on a 2-core host, plus the operator read mix. At
	// this rate mine and publish take about a quarter of each 2 s cycle,
	// which keeps the ack and read medians off the boundary between
	// requests that overlap a mine and requests that do not. Bodies of 8
	// give 1000 acks in a 20 s window, for a steady ack median.
	"pai-steady": {
		name: "pai-steady", window: 5000, minSupport: 0.05, seedEvents: 5000, walTail: 2000,
		bodyLines: 8, rate: 400, readRate: 45, mix: operatorMix,
	},
}

// operatorMix is pai-steady's read mix, issued in this order.
var operatorMix = []readKind{
	{path: "/v1/rules?keyword=failed&kind=cause"},
	{path: "/v1/rules?keyword=sm_util%3D0%25"},
	{path: "/v1/rules?sort=support&limit=50"},
	{path: "/v1/drift?keyword=failed"},
	{path: "/v1/rules?keyword=failed&kind=cause", revalidate: true},
	{path: "/v1/rules?sort=support&limit=50&offset=50"},
	{path: "/v1/drift?keyword=failed", revalidate: true},
}

// serverRun is everything one end-to-end run of a server workload
// measured, kept for the metrics and for the traced replay.
type serverRun struct {
	w         serverWorkload
	in        *inputs
	seedDir   string
	setups    []time.Duration
	start     time.Time // the measured window is [start, end)
	end       time.Time
	ing       *ingester
	rd        *reader
	mon       *monitor
	base      int // observed total at run start
	rss       float64
	fresh     []time.Duration
	batches   []batchObs
	pipelines []time.Duration // per publish: newest added record's ack -> visible
	metricsAt map[string]any  // /metrics after the drain
	mines     int
}

// batchObs is one snapshot published during the run: the run-relative
// observed total it covers and the end-to-end time from the due time of
// the request that completed it to the snapshot being visible.
type batchObs struct {
	upto int
	e2e  time.Duration
}

func runServerWorkload(e *env, w serverWorkload, seed int64, seconds int, ops *opStats) (*serverRun, error) {
	phase := phaseLog()
	// Enough records for the window plus the cool-down.
	runN := int(w.rate * (float64(seconds) + coolDown.Seconds()))
	in, err := makeInputs(seed, w.seedEvents+w.walTail, runN, w.bodyLines)
	if err != nil {
		return nil, err
	}
	r := &serverRun{w: w, in: in}
	if r.seedDir, err = e.dir("seed"); err != nil {
		return nil, err
	}
	if err := seedState(w, r.seedDir, in.seed); err != nil {
		return nil, fmt.Errorf("seeding state: %w", err)
	}

	phase("inputs and seeding")
	// Set-up: each start is from a fresh copy of the seeded dirs. The last
	// of the starts before the run serves it; the rest of the repeats come
	// after the run, so the median spans the run's whole duration.
	var p *proc
	var base string
	for i := 0; i < setupBefore; i++ {
		if i > 0 {
			p.kill()
		}
		var t time.Duration
		if p, base, t, err = r.startFromSeed(e, i); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, t)
	}
	defer p.kill()

	phase("set-up")
	mv, err := fetchMetrics(base)
	if err != nil {
		return nil, err
	}
	r.base = num(mv, "observed_total")
	minesBefore := num(mv, "mine_count")

	// The timed run.
	monCtx, stopMon := context.WithCancel(context.Background())
	defer stopMon()
	r.mon = &monitor{base: base, ops: ops}
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		r.mon.run(monCtx)
	}()
	// Flush the seeding and set-up writes first, so fsyncs in the window
	// do not pay for them.
	syscall.Sync()
	r.start = time.Now().Add(20 * time.Millisecond)
	r.end = r.start.Add(time.Duration(seconds) * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+2*coolDown)
	defer cancel()
	r.ing = &ingester{url: base + "/v1/jobs", in: in, ops: ops}
	readDone := make(chan struct{})
	r.rd = &reader{base: base, mix: w.mix, rate: w.readRate, ops: ops}
	go func() {
		defer close(readDone)
		r.rd.run(ctx, r.start, r.end)
	}()
	ingDone := make(chan struct{})
	go func() {
		defer close(ingDone)
		r.ing.openLoop(ctx, w.rate, r.start)
	}()
	time.Sleep(time.Until(r.end))
	// Cool-down: ingest goes on until a snapshot covers every record
	// acknowledged in the measured window, so the window's last records are
	// published by the steady cadence rather than by the drain.
	coolErr := r.waitCovered(r.totals(r.end), coolDown)
	r.ing.stop.Store(true)
	<-ingDone
	<-readDone
	phase("window and cool-down")
	if coolErr != nil {
		return nil, coolErr
	}
	if t := r.ing.exhaustedAt(); !t.IsZero() && t.Before(r.end) {
		return nil, fmt.Errorf("the load generator ran out of generated records %s before the window ended", r.end.Sub(t))
	}
	if r.rss, err = p.peakRSSMiB(); err != nil {
		return nil, err
	}

	// Drain: wait for a snapshot that covers every accepted record.
	if err := r.waitCovered(r.totals(time.Time{}), coolDown); err != nil {
		return nil, err
	}
	phase("drain")
	stopMon()
	<-monDone
	if r.metricsAt, err = fetchMetrics(base); err != nil {
		return nil, err
	}
	r.mines = num(r.metricsAt, "mine_count") - minesBefore
	r.freshness()

	servedRules, err := fetchRules(base)
	if err != nil {
		return nil, err
	}
	servedDigest := rulesDigest(servedRules)
	servedN := len(servedRules)
	if err := r.checkCounters(); err != nil {
		return nil, err
	}
	phase("final fetch")
	if err := p.stop(30 * time.Second); err != nil {
		return nil, err
	}
	refRules, err := r.reference(e)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if len(refRules) != servedN || rulesDigest(refRules) != servedDigest {
		return nil, fmt.Errorf("served /v1/rules (%d rules) differs from the in-process reference (%d rules)", servedN, len(refRules))
	}
	phase("reference")
	for i := setupBefore; i < setupRepeats; i++ {
		q, _, t, err := r.startFromSeed(e, i)
		if err != nil {
			return nil, err
		}
		q.kill()
		r.setups = append(r.setups, t)
	}
	phase("post-run set-up")
	return r, nil
}

// phaseLog returns a function that reports on stderr how long each phase
// of a run took.
func phaseLog() func(string) {
	last := time.Now()
	return func(name string) {
		fmt.Fprintf(os.Stderr, "e2ebench: %-22s %6.2fs\n", name, time.Since(last).Seconds())
		last = time.Now()
	}
}

// startFromSeed starts cmd/serve on a fresh copy of the seeded dirs and
// waits for its first snapshot of the restored state.
func (r *serverRun) startFromSeed(e *env, i int) (p *proc, base string, took time.Duration, err error) {
	dir, err := e.dir(fmt.Sprintf("serve-%d", i))
	if err != nil {
		return
	}
	if err = copyDir(r.seedDir, dir); err != nil {
		return
	}
	addr, err := freePort()
	if err != nil {
		return
	}
	if p, err = e.spawn("serve", r.w.serveArgs(addr, filepath.Join(dir, "state"), filepath.Join(dir, "wal"))...); err != nil {
		return
	}
	base = "http://" + addr
	probe := newClient()
	defer probe.CloseIdleConnections()
	took, err = waitReady(p, probe, base, len(r.in.seed), 60*time.Second)
	if err != nil {
		p.kill()
	}
	return
}

// waitCovered waits until the latest snapshot the monitor saw reaches
// the observed total want.
func (r *serverRun) waitCovered(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		snaps := r.mon.snapshots()
		if len(snaps) > 0 && snaps[len(snaps)-1].total >= want {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("no snapshot covering %d records within %s", want, timeout)
}

// totals is the observed total the server reaches once every record
// acknowledged before t (every accepted record for the zero time) is mined.
func (r *serverRun) totals(t time.Time) int {
	want := r.base
	r.ing.mu.Lock()
	defer r.ing.mu.Unlock()
	for _, a := range r.ing.acks {
		if t.IsZero() || a.done.Before(t) {
			want += a.n
		}
	}
	return want
}

// freshness assigns every accepted record its ordinal (one ingest
// connection makes ack order the enqueue order) and finds the first
// observed snapshot that contains it: the first whose observed total
// reaches the ordinal.
//
// It also times each publish's pipeline, from the ack of the newest record
// the snapshot added to the snapshot being visible, and records the batch
// boundaries and their end-to-end times from the due time of the request
// that completed them.
func (r *serverRun) freshness() {
	snaps := r.mon.snapshots()
	var ackOf []int // run ordinal-1 -> index into acks
	for k, a := range r.ing.acks {
		for j := 0; j < a.n; j++ {
			ackOf = append(ackOf, k)
			if !a.done.Before(r.end) {
				continue // acknowledged in the cool-down
			}
			ord := r.base + len(ackOf)
			i := sort.Search(len(snaps), func(i int) bool { return snaps[i].total >= ord })
			if i < len(snaps) {
				r.fresh = append(r.fresh, max(0, snaps[i].t.Sub(a.done)))
			}
		}
	}
	prev := r.base
	for _, o := range snaps {
		if o.total > prev && o.total-r.base <= len(ackOf) {
			a := &r.ing.acks[ackOf[o.total-r.base-1]]
			r.batches = append(r.batches, batchObs{upto: o.total - r.base, e2e: o.t.Sub(a.due)})
			if a.done.Before(r.end) {
				r.pipelines = append(r.pipelines, max(0, o.t.Sub(a.done)))
			}
		}
		prev = o.total
	}
}

// checkCounters compares the server's own counters with the load
// generator's view of the run.
func (r *serverRun) checkCounters() error {
	mv := r.metricsAt
	accepted := len(r.ing.accepted())
	if got := num(mv, "ingest_accepted"); got != accepted {
		return fmt.Errorf("server counted %d accepted records, load generator %d", got, accepted)
	}
	for _, key := range []string{"ingest_rejected", "encode_errors"} {
		if got := num(mv, key); got != 0 {
			return fmt.Errorf("%s = %d, want 0", key, got)
		}
	}
	if grew := num(mv, "observed_total") - r.base; grew != accepted {
		return fmt.Errorf("observed_total grew by %d, want %d accepted records", grew, accepted)
	}
	return nil
}

func fetchMetrics(base string) (map[string]any, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	status, b, _, err := get(context.Background(), c, base+"/metrics", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	var mv map[string]any
	return mv, json.Unmarshal(b, &mv)
}

// servedRulesResponse is the part of GET /v1/rules the check compares.
type servedRulesResponse struct {
	Stale     bool             `json:"stale"`
	RuleCount int              `json:"rule_count"`
	Rules     []rules.RuleJSON `json:"rules"`
}

// fetchRules reads every rule of the final snapshot. The page size is the
// snapshot's own rule count: /v1/rules preallocates its page from the
// limit parameter, so a huge limit would exhaust the server's memory.
func fetchRules(base string) ([]rules.RuleJSON, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	var resp servedRulesResponse
	for _, limit := range []int{1, -1} {
		if limit < 0 {
			limit = max(1, resp.RuleCount)
		}
		status, b, _, err := get(context.Background(), c, fmt.Sprintf("%s/v1/rules?limit=%d", base, limit), "")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("final /v1/rules: status %d", status)
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return nil, err
		}
	}
	if resp.Stale {
		return nil, fmt.Errorf("final snapshot is stale")
	}
	if len(resp.Rules) == 0 {
		return nil, fmt.Errorf("final snapshot has no rules")
	}
	if len(resp.Rules) != resp.RuleCount {
		return nil, fmt.Errorf("final /v1/rules returned %d of %d rules", len(resp.Rules), resp.RuleCount)
	}
	return resp.Rules, nil
}

// reference rebuilds the final rules in-process: the seeded checkpoint
// and WAL tail restored with the served configuration (mining held to
// Stop), then the accepted records fed serially in acknowledgement order,
// which with one ingest connection is the order the server enqueued them.
func (r *serverRun) reference(e *env) ([]rules.RuleJSON, error) {
	d, err := e.dir("ref")
	if err != nil {
		return nil, err
	}
	if err := copyDir(r.seedDir, d); err != nil {
		return nil, err
	}
	accepted := r.ing.accepted()
	cfg := noMining(r.w.config(filepath.Join(d, "state"), filepath.Join(d, "wal")), len(accepted))
	cfg.Fsync = "never"
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, i := range accepted {
		if err := enqueue(s.Enqueue, r.in.run[i]); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		return nil, err
	}
	snap := s.Snapshot()
	if snap == nil {
		return nil, fmt.Errorf("no final snapshot")
	}
	return rules.ManyToJSON(snap.View.Rules, snap.View.Catalog), os.RemoveAll(d)
}

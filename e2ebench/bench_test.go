package main

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/server"
)

func TestBodiesAreByteIdenticalPerSeed(t *testing.T) {
	render := func(seed int64) []byte {
		in, err := makeInputs(seed, 100, 450, 200)
		if err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		for _, b := range in.bodies {
			all.Write(b.bytes(0))
			all.WriteByte(0)
		}
		return all.Bytes()
	}
	a, b := render(7), render(7)
	if !bytes.Equal(a, b) {
		t.Fatal("bodies for seed 7 differ between two generations")
	}
	if bytes.Equal(a, render(8)) {
		t.Fatal("seeds 7 and 8 generated the same bodies")
	}
	in, err := makeInputs(7, 100, 450, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(in.bodies); got != 3 {
		t.Fatalf("450 records in bodies of 200: %d bodies, want 3", got)
	}
	if got := in.bodies[2].bytes(10); !bytes.Equal(got, bytes.Join(in.bodies[2].lines[10:], []byte{'\n'})) {
		t.Fatal("resuming a body from a line does not resend exactly the remaining lines")
	}
}

// The generated events must pass the served spec's validation: the -skip
// list the load generator passes keeps num_tasks out of encoding.
func TestEventsValidateUnderServedSpec(t *testing.T) {
	in, err := makeInputs(3, 10, 50, 25)
	if err != nil {
		t.Fatal(err)
	}
	dec := server.NewDecoder(server.PAISpec())
	for _, ev := range append(in.seed, in.run...) {
		if err := dec.Validate(ev); err != nil {
			t.Fatalf("event rejected: %v", err)
		}
	}
	args := serverWorkloads["pai-steady"].serveArgs("127.0.0.1:1", "s", "w")
	for i, a := range args {
		if a == "-skip" && args[i+1] != "job_id,submit_s,num_tasks" {
			t.Fatalf("-skip %s, want the PAI spec's own list", args[i+1])
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Batch: 1, Blocking: true, StartNS: ms(0), EndNS: ms(100)},
		// Two overlapping children cover [10,50); a third covers [60,70).
		{ID: 2, Parent: 1, Name: "child", StartNS: ms(10), EndNS: ms(40)},
		{ID: 3, Parent: 1, Name: "child", StartNS: ms(30), EndNS: ms(50)},
		{ID: 4, Parent: 1, Name: "other", StartNS: ms(60), EndNS: ms(70)},
		// A grandchild counts against its parent, not the root.
		{ID: 5, Parent: 4, Name: "leaf", StartNS: ms(62), EndNS: ms(65)},
		{ID: 6, Name: "ingest", Batch: 1, Blocking: true, StartNS: ms(100), EndNS: ms(120)},
		{ID: 7, Name: "ingest", Batch: 1, StartNS: ms(120), EndNS: ms(125)},
		{ID: 8, Name: "ingest", Batch: 2, Blocking: true, StartNS: ms(130), EndNS: ms(131)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, "child": 50 * time.Millisecond,
		"other": 7 * time.Millisecond, "leaf": 3 * time.Millisecond, "ingest": 26 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %s, want %s", name, self[name], d)
		}
	}
	sum := summarize(spans, map[int]time.Duration{1: 200 * time.Millisecond}, nil)
	if len(sum.Batches) != 1 {
		t.Fatalf("%d batches summarised, want 1", len(sum.Batches))
	}
	if b := sum.Batches[0]; b.BlockingMS != 120 || b.RemainderMS != 80 {
		t.Fatalf("batch 1: blocking %.0f ms remainder %.0f ms, want 120 and 80", b.BlockingMS, b.RemainderMS)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got, want := tailQuantile(xs), quantile(xs, 0.99); got != want {
		t.Fatalf("2000 samples: %v, want p99 %v", got, want)
	}
	if got, want := tailQuantile(xs[:100]), quantile(xs[:100], 0.90); got != want {
		t.Fatalf("100 samples: %v, want p90 %v", got, want)
	}
	if got, want := tailQuantile(xs[:12]), median(xs[:12]); got != want {
		t.Fatalf("12 samples: %v, want the median %v", got, want)
	}
}

// Every metric the program can print is declared in BENCHMARK.json with
// the same unit, and every declared end-to-end metric is printed by both
// the server and the offline workloads.
func TestEndToEndMetricsMatchDeclaration(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	sample := []timed{{at: now, d: time.Millisecond}}
	r := &serverRun{
		start: now, end: now.Add(2 * time.Second), setups: []time.Duration{time.Second},
		ing: &ingester{acks: []ack{{done: now.Add(time.Second), n: 1}}, ackLat: sample},
		rd:  &reader{lat: []time.Duration{time.Millisecond}}, fresh: []time.Duration{time.Second},
		pipelines: []time.Duration{time.Second}, rss: 1,
	}
	if err := matchDeclared(serverMetrics(r), sp.EndToEnd); err != nil {
		t.Errorf("server workloads: %v", err)
	}
	o := &offlineRun{setups: []time.Duration{time.Second}, acks: []time.Duration{time.Second}, queries: []time.Duration{time.Second},
		fresh: []float64{1}, passes: []time.Duration{time.Second}, records: 1, rssMiB: []float64{1}}
	if err := matchDeclared(offlineMetrics(o), sp.EndToEnd); err != nil {
		t.Errorf("offline-paper: %v", err)
	}
	for _, w := range sp.Workloads {
		if _, ok := serverWorkloads[w.Name]; !ok && w.Name != "offline-paper" {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
	if got := len(sp.Workloads); got != len(serverWorkloads)+1 {
		t.Errorf("%d declared workloads, %d implemented", got, len(serverWorkloads)+1)
	}
	if err := matchDeclared(map[string]metric{"x": {1, "s"}}, sp.EndToEnd); err == nil {
		t.Error("an undeclared metric passed the declaration check")
	}
}

func ruleJSON(ante, cons []string, lift float64) []rules.RuleJSON {
	return []rules.RuleJSON{
		{Antecedent: ante, Consequent: cons, Count: 3, Support: 0.1, Confidence: 0.5, Lift: lift},
		{Antecedent: []string{"x"}, Consequent: []string{"y"}, Count: 2, Support: 0.2, Confidence: 0.4, Lift: 2},
	}
}

func TestRulesDigestIsCanonical(t *testing.T) {
	r1 := ruleJSON([]string{"b", "a"}, []string{"c"}, 0.5)
	r2 := ruleJSON([]string{"a", "b"}, []string{"c"}, 0.5)
	r2[0], r2[1] = r2[1], r2[0]
	if rulesDigest(r1) != rulesDigest(r2) {
		t.Fatal("rule sets differing only in rule and item order digest differently")
	}
	if rulesDigest(r1) == rulesDigest(ruleJSON([]string{"a", "b"}, []string{"c"}, 0.25)) {
		t.Fatal("rule sets with a different lift digest equally")
	}
	if rulesDigest(r1) == rulesDigest(r1[:1]) {
		t.Fatal("a rule set and its subset digest equally")
	}
}

// The counter check compares the server's counters with the load
// generator's accepted records and requires no rejected record.
func TestCheckCounters(t *testing.T) {
	r := &serverRun{ing: &ingester{acks: []ack{{first: 0, n: 3}}}, base: 10}
	body := func(rejected float64) map[string]any {
		return map[string]any{"ingest_accepted": 3.0, "observed_total": 13.0, "ingest_rejected": rejected, "encode_errors": 0.0}
	}
	r.metricsAt = body(0)
	if err := r.checkCounters(); err != nil {
		t.Fatalf("clean counters: %v", err)
	}
	r.metricsAt = body(1)
	if err := r.checkCounters(); err == nil {
		t.Fatal("ingest_rejected = 1 passed the counter check")
	}
}

// An ack's latency counts a wait for the previous response but not the
// generator's own delay in sending.
func TestOriginOf(t *testing.T) {
	due := time.Unix(100, 0)
	ms := func(n int) time.Time { return due.Add(time.Duration(n) * time.Millisecond) }
	for _, c := range []struct {
		name             string
		prevDone, sent   time.Time
		wantLatencyStart time.Time
	}{
		{"on time", ms(-5), due, due},
		{"late timer", ms(-5), ms(2), ms(2)},
		{"slow predecessor", ms(5), ms(5), due},
		{"slow predecessor, then a late timer", ms(5), ms(6), ms(1)},
	} {
		if got := originOf(due, c.prevDone, c.sent); !got.Equal(c.wantLatencyStart) {
			t.Errorf("%s: latency starts %v after due, want %v", c.name, got.Sub(due), c.wantLatencyStart.Sub(due))
		}
	}
}

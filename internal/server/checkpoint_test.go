package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fetchNormalized GETs url and returns the body re-marshalled with the
// timing field removed: map marshalling sorts keys, so equal states produce
// byte-identical outputs.
func fetchNormalized(t *testing.T, url string) []byte {
	t.Helper()
	var body map[string]any
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("GET %s = %d", url, code)
	}
	delete(body, "mined_at")
	out, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func stopServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRestartByteIdenticalRules is the acceptance path for the
// durable serving state: a server killed mid-stream and restarted from its
// checkpoint must serve /v1/rules byte-identical (modulo the mined-at
// timestamp) to a server that ingested the same stream uninterrupted — same
// seq, same window, same rules — without re-running the bootstrap.
func TestCheckpointRestartByteIdenticalRules(t *testing.T) {
	const jobs = 3000
	lines := paiNDJSON(t, jobs, 13)
	cfg := func(dir string) Config {
		return Config{
			Spec:         PAISpec(),
			WindowSize:   5000,
			Bootstrap:    300,
			MineBatch:    1500,
			MineInterval: time.Hour, // batch-driven: mining points are deterministic
			QueueSize:    4096,
			KeepItems:    []string{"status=failed"},
			StateDir:     dir,
		}
	}
	ruleQueries := []string{
		"/v1/rules?limit=100000",
		"/v1/rules?keyword=failed&kind=all&limit=100000",
	}

	// Reference: one server sees the whole stream.
	uninterrupted := make([][]byte, len(ruleQueries))
	{
		s, err := New(cfg(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		postChunks(t, ts.URL, lines, 500)
		waitForSeq(t, s, 2, jobs)
		for i, q := range ruleQueries {
			uninterrupted[i] = fetchNormalized(t, ts.URL+q)
		}
		ts.Close()
		stopServer(t, s)
	}

	// Interrupted: ingest half, drain (which checkpoints), kill.
	dir := t.TempDir()
	{
		s, err := New(cfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		postChunks(t, ts.URL, lines[:jobs/2], 500)
		waitForSeq(t, s, 1, jobs/2)
		ts.Close()
		stopServer(t, s)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFileName)); err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}

	// Restart from the checkpoint and feed the second half.
	s, err := New(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer stopServer(t, s)

	// The restored window is republished under its checkpointed seq before
	// any new ingest: queries work immediately and numbering continues.
	waitForSeq(t, s, 1, jobs/2)
	if snap := s.Snapshot(); snap.View.WindowLen != jobs/2 {
		t.Fatalf("restored window holds %d txns, want %d", snap.View.WindowLen, jobs/2)
	}
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if got := m["restored"].(float64); got != 1 {
		t.Errorf("restored gauge = %v, want 1", got)
	}
	// No re-bootstrap: the very next events must encode straight into the
	// window instead of disappearing into a fresh bootstrap buffer.
	postChunks(t, ts.URL, lines[jobs/2:], 500)
	waitForSeq(t, s, 2, jobs)

	for i, q := range ruleQueries {
		restarted := fetchNormalized(t, ts.URL+q)
		if !bytes.Equal(uninterrupted[i], restarted) {
			t.Errorf("%s differs between uninterrupted and restarted runs:\n  uninterrupted: %.200s\n  restarted:     %.200s",
				q, uninterrupted[i], restarted)
		}
	}
	// Every mine lands in exactly one of the two mine counters, and both
	// stay exported for dashboards.
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	incr, ok := m["mine_incremental_total"].(float64)
	if !ok {
		t.Fatal("mine_incremental_total missing from /metrics")
	}
	rebuilds, ok := m["mine_full_rebuild_total"].(float64)
	if !ok {
		t.Fatal("mine_full_rebuild_total missing from /metrics")
	}
	if incr+rebuilds < 1 {
		t.Errorf("restarted server mined %v times by either counter, want ≥ 1", incr+rebuilds)
	}

	// The atomic tmp+rename never leaves partial files behind: only the two
	// checkpoint generations may exist.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != checkpointFileName && e.Name() != checkpointPrevFileName {
			t.Errorf("stray file in state dir: %s", e.Name())
		}
	}
}

func waitForSeq(t *testing.T, s *Server, seq int64, total int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := s.Snapshot()
		if snap != nil && snap.Seq == seq && snap.View.Total == total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never reached seq=%d total=%d: %+v", seq, total, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointSpecMismatchRefused: restoring under a different encoder
// spec must fail loudly instead of mis-applying every fitted discretizer.
func TestCheckpointSpecMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	mk := func(spec Spec) (*Server, error) {
		return New(Config{
			Spec:         spec,
			Bootstrap:    4,
			MineBatch:    4,
			MineInterval: time.Hour,
			StateDir:     dir,
		})
	}
	s, err := mk(Spec{Numeric: []NumericSpec{{Field: "util"}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	body := strings.NewReader(`{"util":1}` + "\n" + `{"util":2}` + "\n" + `{"util":3}` + "\n" + `{"util":4}` + "\n")
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	stopServer(t, s)

	if _, err := mk(Spec{Numeric: []NumericSpec{{Field: "other"}}}); err == nil {
		t.Fatal("restore under a different spec should fail")
	} else if !strings.Contains(err.Error(), "different spec") {
		t.Errorf("unexpected error: %v", err)
	}
	// The original spec still restores.
	s2, err := mk(Spec{Numeric: []NumericSpec{{Field: "util"}}})
	if err != nil {
		t.Fatal(err)
	}
	stopServer(t, s2)
}

// TestCheckpointCorruptFileRefused: garbage state files are an error at New,
// not a silent cold start that would quietly re-bootstrap in production.
func TestCheckpointCorruptFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Spec: Spec{}, StateDir: dir}); err == nil {
		t.Fatal("corrupt checkpoint should fail New")
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Spec: Spec{}, StateDir: dir}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint should fail New, got %v", err)
	}
}

// TestCheckpointPreservesUnfittedBootstrap: a checkpoint written before the
// bootstrap completed must carry the pending events and samples, so the
// restarted server fits on the full intended sample, not a truncated one.
func TestCheckpointPreservesUnfittedBootstrap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Spec:         Spec{Numeric: []NumericSpec{{Field: "util"}}},
		Bootstrap:    100,
		MineBatch:    100000,
		MineInterval: time.Hour,
		StateDir:     dir,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var buf bytes.Buffer
	for i := 0; i < 40; i++ {
		buf.WriteString(`{"util":` + string(rune('1'+i%9)) + `,"user":"u"}` + "\n")
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	stopServer(t, s) // drain: 40 < 100 forces a flush-fit and a final mine

	// The drain flush fit the encoder on 40 events; the checkpoint must
	// reflect that fitted state and the full 40-event window.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitForSeq(t, s2, 1, 40)
	stopServer(t, s2)
}

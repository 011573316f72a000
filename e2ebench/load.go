package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// timed is a latency sample and the time its request was due or sent.
type timed struct {
	at time.Time
	d  time.Duration
}

// within returns the latencies of requests due or sent before t.
func within(xs []timed, t time.Time) []time.Duration {
	var out []time.Duration
	for _, x := range xs {
		if x.at.Before(t) {
			out = append(out, x.d)
		}
	}
	return out
}

// ack is one ingest response that accepted records: the run events
// [first, first+n) were acknowledged at done.
type ack struct {
	due, done time.Time
	first, n  int
}

// opStats counts attempted and failed operations across every client.
type opStats struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func (s *opStats) add(failed bool, why string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if failed {
		s.failed++
		if len(s.errs) < 10 {
			s.errs = append(s.errs, why)
		}
	}
}

// ingester drives POST /v1/jobs open-loop on one connection.
type ingester struct {
	url string
	in  *inputs
	ops *opStats

	// stop ends the send loop; exhausted is when it ran out of generated
	// bodies, if it did.
	stop      atomic.Bool
	exhausted atomic.Int64

	mu     sync.Mutex
	acks   []ack
	ackLat []timed         // per successful request, stamped with its due time
	late   []time.Duration // send time minus due time
}

type ingestReply struct {
	Accepted      int `json:"accepted"`
	Rejected      int `json:"rejected"`
	DroppedAtLine int `json:"dropped_at_line"`
}

// send posts one body until every line is accepted, resuming from
// dropped_at_line after a 429 or 503 instead of re-sending the accepted
// prefix. A body that cannot be delivered is counted as failed and
// dropped. Its ack latency runs from origin to the final response.
func (g *ingester) send(ctx context.Context, c *http.Client, b body, due, origin time.Time) {
	from := 0
	for from < len(b.lines) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(b.bytes(from)))
		if err != nil {
			g.ops.add(true, err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.Do(req)
		if err != nil {
			// The server may have accepted part of the body; the accepted
			// count check at the end of the run reports any mismatch.
			g.ops.add(true, "ingest: "+err.Error())
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		var rep ingestReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			g.ops.add(true, fmt.Sprintf("ingest: status %d, undecodable reply %q", resp.StatusCode, raw))
			return
		}
		if rep.Accepted > 0 {
			g.record(ack{due: due, done: done, first: b.first + from, n: rep.Accepted})
		}
		switch {
		case resp.StatusCode == http.StatusOK && rep.Rejected == 0:
			g.mu.Lock()
			g.ackLat = append(g.ackLat, timed{at: due, d: done.Sub(origin)})
			g.mu.Unlock()
			g.ops.add(false, "")
			return
		case (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && rep.DroppedAtLine > 0:
			g.ops.add(true, fmt.Sprintf("ingest: status %d at line %d", resp.StatusCode, rep.DroppedAtLine))
			// Honour Retry-After; the schedule keeps running, so the wait
			// shows as lateness and, past a second, invalidates the run.
			from += rep.DroppedAtLine - 1
			wait := 100 * time.Millisecond
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				wait = time.Duration(s) * time.Second
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		default:
			g.ops.add(true, fmt.Sprintf("ingest: status %d: %s", resp.StatusCode, raw))
			return
		}
	}
}

func (g *ingester) record(a ack) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.acks = append(g.acks, a)
}

// openLoop sends bodies on a fixed schedule over one connection, rate in
// records per second, until stop is set or the bodies run out.
//
// A request that is due while the previous one is still in flight waits
// for the server, and that wait counts into its ack latency. The
// generator's own delay past the moment it could have sent (timer wake-up,
// its own scheduling) does not: the latency runs from the due time plus
// that delay. Lateness, send time minus due time, is recorded whole.
func (g *ingester) openLoop(ctx context.Context, rate float64, start time.Time) {
	c := newClient()
	defer c.CloseIdleConnections()
	var prevDone time.Time
	for _, b := range g.in.bodies {
		due := start.Add(time.Duration(float64(b.first) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		if g.stop.Load() {
			return
		}
		sent := time.Now()
		g.mu.Lock()
		g.late = append(g.late, sent.Sub(due))
		g.mu.Unlock()
		g.send(ctx, c, b, due, originOf(due, prevDone, sent))
		prevDone = time.Now()
	}
	g.exhausted.CompareAndSwap(0, time.Now().UnixNano())
}

// originOf is where a request's ack latency starts: its due time, moved
// on by the generator's own delay, which is the time from when it could
// have sent (due, or the previous response when that came later) to when
// it did.
func originOf(due, prevDone, sent time.Time) time.Time {
	ready := due
	if prevDone.After(due) {
		ready = prevDone
	}
	if sent.Before(ready) {
		return due
	}
	return due.Add(sent.Sub(ready))
}

func (g *ingester) exhaustedAt() time.Time {
	if ns := g.exhausted.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// accepted returns the run events in acknowledgement order. With one
// ingest connection this is exactly the order the server enqueued them.
func (g *ingester) accepted() []int {
	var idx []int
	for _, a := range g.acks {
		for i := a.first; i < a.first+a.n; i++ {
			idx = append(idx, i)
		}
	}
	return idx
}

// readKind is one entry of a read mix.
type readKind struct {
	path string
	// revalidate sends the ETag of the previous response to this path, so
	// an unchanged snapshot answers 304.
	revalidate bool
}

// reader issues a paced read mix over one connection: the next request
// goes out at its due time, or at once when the previous one ran late.
type reader struct {
	base string
	mix  []readKind
	rate float64
	ops  *opStats

	lat []time.Duration
}

func (r *reader) run(ctx context.Context, start, deadline time.Time) {
	c := newClient()
	defer c.CloseIdleConnections()
	etags := map[string]string{}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / r.rate * float64(time.Second)))
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		rk := r.mix[k%len(r.mix)]
		inm := ""
		if rk.revalidate {
			inm = etags[rk.path]
		}
		sent := time.Now()
		status, b, etag, err := get(ctx, c, r.base+rk.path, inm)
		lat := time.Since(sent)
		switch {
		case err != nil:
			r.ops.add(true, "read: "+err.Error())
			continue
		case status != http.StatusOK && status != http.StatusNotModified:
			r.ops.add(true, fmt.Sprintf("read %s: status %d: %.200s", rk.path, status, b))
			continue
		}
		r.ops.add(false, "")
		r.lat = append(r.lat, lat)
		etags[rk.path] = etag
	}
}

// snapObs is one published snapshot as the monitor first saw it.
type snapObs struct {
	t     time.Time
	total int
}

// monitor polls the snapshot validator and /metrics on two probe
// connections: the first to timestamp every publish for freshness, the
// second for backlog counters.
type monitor struct {
	base string
	ops  *opStats

	mu       sync.Mutex
	snaps    []snapObs
	queueMax int
}

func (m *monitor) run(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m.pollSnapshots(ctx)
	}()
	go func() {
		defer wg.Done()
		m.pollMetrics(ctx)
	}()
	wg.Wait()
}

func (m *monitor) pollSnapshots(ctx context.Context) {
	c := newClient()
	defer c.CloseIdleConnections()
	last := ""
	for ctx.Err() == nil {
		status, b, etag, err := get(ctx, c, m.base+"/v1/rules?limit=1", last)
		now := time.Now()
		if ctx.Err() != nil {
			return
		}
		if err != nil || (status != http.StatusOK && status != http.StatusNotModified) {
			m.ops.add(true, fmt.Sprintf("probe rules: %v status %d", err, status))
		} else {
			m.ops.add(false, "")
			m.mu.Lock()
			if status == http.StatusOK {
				var r struct {
					Total int `json:"observed_total"`
				}
				if json.Unmarshal(b, &r) == nil {
					m.snaps = append(m.snaps, snapObs{t: now, total: r.Total})
				}
				last = etag
			}
			m.mu.Unlock()
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (m *monitor) pollMetrics(ctx context.Context) {
	c := newClient()
	defer c.CloseIdleConnections()
	for ctx.Err() == nil {
		status, b, _, err := get(ctx, c, m.base+"/metrics", "")
		if ctx.Err() != nil {
			return
		}
		var mv map[string]any
		if err != nil || status != http.StatusOK || json.Unmarshal(b, &mv) != nil {
			m.ops.add(true, fmt.Sprintf("probe metrics: %v status %d", err, status))
		} else {
			m.ops.add(false, "")
			m.mu.Lock()
			m.queueMax = max(m.queueMax, num(mv, "queue_depth"))
			m.mu.Unlock()
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func num(m map[string]any, key string) int {
	f, _ := m[key].(float64)
	return int(f)
}

func (m *monitor) snapshots() []snapObs {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]snapObs(nil), m.snaps...)
}

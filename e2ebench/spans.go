package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans that
// block a batch's publish carry its batch id; Parent is 0 for top-level
// spans.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Batch    int    `json:"batch"`
	Blocking bool   `json:"blocking"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, batch int, blocking bool) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Batch: batch, Blocking: blocking,
		StartNS: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return s.dur()
}

// do runs fn inside a span and returns its duration.
func (t *tracer) do(name string, parent, batch int, blocking bool, fn func()) time.Duration {
	id := t.begin(name, parent, batch, blocking)
	fn()
	return t.end(id)
}

// durations lists the durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// blockingByBatch sums the top-level blocking spans of each batch: the
// steps a batch's publish waited on that the replay could time.
func blockingByBatch(spans []span) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Blocking && s.Parent == 0 && s.Batch > 0 {
			out[s.Batch] += s.dur()
		}
	}
	return out
}

// traceSummary is written next to the span file.
type traceSummary struct {
	SelfMS map[string]float64 `json:"self_ms"`
	// Batches pairs each batch's end-to-end time with the sum of its
	// blocking spans; the remainder is what the replay could not attribute
	// (HTTP, the unexported online encoder, scheduling).
	Batches []batchSummary `json:"batches"`
}

type batchSummary struct {
	Batch       int     `json:"batch"`
	EndToEndMS  float64 `json:"end_to_end_ms"`
	BlockingMS  float64 `json:"blocking_ms"`
	RemainderMS float64 `json:"remainder_ms"`
}

// summarize computes self times and, for every batch with a known
// end-to-end time, the unaccounted remainder. A nil blocking map is
// derived from the spans.
func summarize(spans []span, e2e, blocking map[int]time.Duration) traceSummary {
	sum := traceSummary{SelfMS: map[string]float64{}}
	for name, d := range selfTimes(spans) {
		sum.SelfMS[name] = ms(d)
	}
	if blocking == nil {
		blocking = blockingByBatch(spans)
	}
	ids := make([]int, 0, len(e2e))
	for b := range e2e {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	for _, b := range ids {
		sum.Batches = append(sum.Batches, batchSummary{
			Batch: b, EndToEndMS: ms(e2e[b]), BlockingMS: ms(blocking[b]),
			RemainderMS: ms(e2e[b] - blocking[b]),
		})
	}
	return sum
}

// write stores the spans as JSON lines and the summary as JSON.
func (t *tracer) write(spanPath, summaryPath string, sum traceSummary) error {
	f, err := os.Create(spanPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(summaryPath, b, 0o644)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/server"
	"repro/internal/trace"
)

// inputs is one workload's generated event stream: a PAI trace joined and
// converted to ingest events, split into the untimed seed prefix and the
// timed run, with the run pre-rendered into NDJSON request bodies.
type inputs struct {
	trace  *trace.Trace
	seed   []server.Event
	run    []server.Event
	bodies []body
}

// body is one POST /v1/jobs request: its NDJSON lines (kept separate so a
// 429 can resume from dropped_at_line) and the run-event range it covers.
type body struct {
	lines [][]byte
	first int // index into inputs.run of the body's first event
}

func (b body) bytes(fromLine int) []byte {
	return bytes.Join(b.lines[fromLine:], []byte{'\n'})
}

// makeInputs generates seedN+runN PAI jobs from seed and renders the run
// part into bodies of bodyLines records. The same arguments always yield
// byte-identical bodies: the trace generator is deterministic per seed and
// encoding/json writes map keys in sorted order.
func makeInputs(seed int64, seedN, runN, bodyLines int) (*inputs, error) {
	tr, err := trace.GeneratePAI(trace.Config{Jobs: seedN + runN, Seed: seed})
	if err != nil {
		return nil, err
	}
	joined, err := tr.Join()
	if err != nil {
		return nil, err
	}
	events := server.FrameEvents(joined)
	if len(events) != seedN+runN {
		return nil, fmt.Errorf("trace gave %d events, want %d", len(events), seedN+runN)
	}
	in := &inputs{trace: tr, seed: events[:seedN], run: events[seedN:]}
	for start := 0; start < runN; start += bodyLines {
		end := min(start+bodyLines, runN)
		b := body{first: start}
		for _, ev := range in.run[start:end] {
			line, err := json.Marshal(ev)
			if err != nil {
				return nil, err
			}
			b.lines = append(b.lines, line)
		}
		in.bodies = append(in.bodies, b)
	}
	return in, nil
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// serverWorkload describes one cmd/serve deployment and the load driven
// against it. config and serveArgs derive the in-process and the command
// line form of the same settings, so the reference and the seeded state
// always match the process under test.
type serverWorkload struct {
	name       string
	window     int
	minSupport float64
	seedEvents int // folded into the seeded checkpoint
	walTail    int // further events left only in the seeded WAL
	bodyLines  int
	rate       float64 // open-loop records/s
	readRate   float64 // paced reads/s
	mix        []readKind
}

// The mining cadence and durability settings every server workload runs
// with: cmd/serve's deployment defaults, spelled out so the command line
// and the in-process reference cannot drift apart.
const (
	mineBatch       = 1000
	mineInterval    = 2 * time.Second
	fsyncPolicy     = "interval"
	checkpointEvery = 1
)

// The mining thresholds besides min-support, which is per workload:
// cmd/serve's and cmd/armine's defaults, passed to every program and every
// in-process reference and replay, so the per-layer figures stay the
// programs' own if a default moves.
const (
	maxLen  = 5
	minLift = 1.5
)

// tenantField routes the traced replay's three-shard cluster.
const tenantField = "user"

func (w serverWorkload) config(stateDir, walDir string) server.Config {
	return server.Config{
		Spec:            server.PAISpec(),
		WindowSize:      w.window,
		MinSupport:      w.minSupport,
		MaxLen:          maxLen,
		MinLift:         minLift,
		MineBatch:       mineBatch,
		MineInterval:    mineInterval,
		StateDir:        stateDir,
		CheckpointEvery: checkpointEvery,
		WALDir:          walDir,
		Fsync:           fsyncPolicy,
	}
}

// serveArgs is the cmd/serve command line. -skip is passed explicitly:
// with -spec pai, cmd/serve replaces PAISpec().Skip with its own -skip
// default (job_id,submit_s), which rejects every NDJSON event for its
// undeclared num_tasks number. Passing the spec's own list keeps the
// served spec, and the checkpoint fingerprint, equal to PAISpec().
func (w serverWorkload) serveArgs(addr, stateDir, walDir string) []string {
	return []string{
		"-addr", addr,
		"-spec", "pai",
		"-skip", strings.Join(server.PAISpec().Skip, ","),
		"-window", fmt.Sprint(w.window),
		"-min-support", fmt.Sprint(w.minSupport),
		"-max-len", fmt.Sprint(maxLen),
		"-min-lift", fmt.Sprint(minLift),
		"-mine-batch", fmt.Sprint(mineBatch),
		"-mine-interval", mineInterval.String(),
		"-state-dir", stateDir,
		"-checkpoint-every", fmt.Sprint(checkpointEvery),
		"-wal-dir", walDir,
		"-fsync", fsyncPolicy,
	}
}

// noMining keeps an in-process server from mining until Stop, which mines
// the drained window once: the final snapshot depends only on the window
// and the encoder state, not on when intermediate mines happened.
func noMining(cfg server.Config, queue int) server.Config {
	cfg.MineBatch = 1 << 30
	cfg.MineInterval = time.Hour
	cfg.QueueSize = queue + 1
	return cfg
}

// enqueue hands an event to an in-process server or cluster, waiting out
// queue-full backpressure.
func enqueue(fn func(server.Event) error, ev server.Event) error {
	for {
		err := fn(ev)
		if !errors.Is(err, server.ErrQueueFull) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// seedState builds the starting state of a server workload in dir: a
// checkpoint (dir/state) holding the first seedEvents events, and a WAL
// (dir/wal) whose records are the next walTail events, not yet covered by
// the checkpoint, so a start from these dirs restores and then replays.
func seedState(w serverWorkload, dir string, events []server.Event) error {
	stateDir, walDir := filepath.Join(dir, "state"), filepath.Join(dir, "wal")
	ckpt, tail := events[:w.seedEvents], events[w.seedEvents:]
	cfg := noMining(w.config(stateDir, ""), len(ckpt))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	for _, ev := range ckpt {
		if err := enqueue(s.Enqueue, ev); err != nil {
			return err
		}
	}
	if err := s.Stop(ctx); err != nil {
		return err
	}
	if len(tail) == 0 {
		return os.MkdirAll(walDir, 0o755)
	}
	// The tail is appended in the framing Server.Enqueue writes: the JSON
	// of the event, one record each, after the checkpoint's watermark.
	log, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	for _, ev := range tail {
		payload, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := log.Append(payload); err != nil {
			return err
		}
	}
	if err := log.Sync(); err != nil {
		return err
	}
	return log.Close()
}

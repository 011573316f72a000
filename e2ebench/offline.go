package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// The paper's batch workflow: both keywords on each of the three traces,
// Tables II–VII.
var (
	offlineTraces   = []string{"pai", "supercloud", "philly"}
	offlineKeywords = []string{core.KeywordZeroSM, core.KeywordFailed}
)

// offlineMinSupport is cmd/armine's default min-support, passed explicitly
// like maxLen and minLift.
const offlineMinSupport = 0.05

// offlineArgs are the mining thresholds on every cmd/armine analysis.
var offlineArgs = []string{
	"-min-support", fmt.Sprint(offlineMinSupport),
	"-max-len", fmt.Sprint(maxLen),
	"-min-lift", fmt.Sprint(minLift),
}

// pipelineFor is the paper pipeline for a trace with the thresholds
// cmd/armine is given.
func pipelineFor(name string) *core.Pipeline {
	var p *core.Pipeline
	switch name {
	case "pai":
		p = core.PAIPipeline()
	case "supercloud":
		p = core.SuperCloudPipeline()
	default:
		p = core.PhillyPipeline()
	}
	p.Opts.MinSupport = offlineMinSupport
	p.Opts.MaxItemsetLen = maxLen
	p.Opts.MinLift = minLift
	return p
}

// offlineRun is what one offline-paper run measured.
type offlineRun struct {
	dir      string
	rows     map[string]int
	setups   []time.Duration
	acks     []time.Duration   // per cmd/armine analysis
	queries  []time.Duration   // per cmd/armine -describe
	fresh    []float64         // per job record and pass, ms
	passes   []time.Duration   // analysis time of every pass
	records  int               // job records analysed, summed over analyses
	rssMiB   []float64         // per pass: the largest peak RSS of its cmd/armine analyses
	analyses map[string][]byte // trace/keyword -> armine JSON, equal in every pass
}

// runTool runs one of the built programs to completion and returns its
// stdout, wall time and peak RSS in MiB.
func runTool(e *env, name string, args ...string) ([]byte, time.Duration, float64, error) {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	took := time.Since(start)
	if err != nil {
		return nil, took, 0, fmt.Errorf("%s %v: %v: %s", name, args, err, errb.String())
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return out.Bytes(), took, rss, nil
}

var tracegenLine = regexp.MustCompile(`(?m)^(\w+): (\d+) jobs`)

func runOffline(e *env, seed int64, seconds int, ops *opStats) (*offlineRun, error) {
	r := &offlineRun{rows: map[string]int{}, analyses: map[string][]byte{}}
	var err error
	if r.dir, err = e.dir("traces"); err != nil {
		return nil, err
	}
	gen := func(name string) (time.Duration, error) {
		out, took, _, err := runTool(e, "tracegen", "-trace", name, "-seed", fmt.Sprint(seed), "-out", r.dir)
		if err != nil {
			return 0, err
		}
		for _, m := range tracegenLine.FindAllSubmatch(out, -1) {
			r.rows[string(m[1])], _ = strconv.Atoi(string(m[2]))
		}
		return took, nil
	}
	// Set-up: rendering the PAI trace files, repeated; the other two
	// traces are generated once, untimed.
	setup := func() error {
		took, err := gen("pai")
		r.setups = append(r.setups, took)
		return err
	}
	for i := 0; i < setupBefore; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	for _, name := range offlineTraces[1:] {
		if _, err := gen(name); err != nil {
			return nil, err
		}
	}

	// Passes run back to back while another one is expected to end within
	// the window; the first always runs.
	start := time.Now()
	window := time.Duration(seconds) * time.Second
	for len(r.passes) == 0 || time.Since(start)+r.passes[len(r.passes)-1] <= window {
		var elapsed time.Duration
		var rssMiB float64
		for _, name := range offlineTraces {
			files := []string{
				"-scheduler", filepath.Join(r.dir, name+"_scheduler.csv"),
				"-node", filepath.Join(r.dir, name+"_node.csv"),
			}
			_, took, _, err := runTool(e, "armine", append(files, "-describe")...)
			ops.add(err != nil, fmt.Sprint(err))
			if err != nil {
				return nil, err
			}
			r.queries = append(r.queries, took)
			for _, kw := range offlineKeywords {
				out, took, rss, err := runTool(e, "armine", append(append(files, offlineArgs...), "-pipeline", name, "-keyword", kw, "-format", "json")...)
				ops.add(err != nil, fmt.Sprint(err))
				if err != nil {
					return nil, err
				}
				r.acks = append(r.acks, took)
				rssMiB = max(rssMiB, rss)
				r.records += r.rows[name]
				if prev, ok := r.analyses[name+"/"+kw]; ok && !bytes.Equal(prev, out) {
					return nil, fmt.Errorf("%s %s: cmd/armine output changed between passes", name, kw)
				}
				r.analyses[name+"/"+kw] = out
				elapsed += took
			}
			// Every job of this trace has its tables once both analyses
			// are out: freshness counts from the start of the pass.
			for j := 0; j < r.rows[name]; j++ {
				r.fresh = append(r.fresh, ms(elapsed))
			}
		}
		r.passes = append(r.passes, elapsed)
		r.rssMiB = append(r.rssMiB, rssMiB)
	}
	// The rest of the set-up repeats rewrite the same PAI files after the
	// passes, so the median spans the run.
	for i := setupBefore; i < setupRepeats; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	return r, r.check()
}

// check recomputes every analysis in-process with core.Pipeline and
// Result.Analyze on the same files and requires cmd/armine's JSON to be
// byte-identical and non-empty.
func (r *offlineRun) check() error {
	for _, name := range offlineTraces {
		tr, err := trace.Load(r.dir, name)
		if err != nil {
			return err
		}
		joined, err := tr.Join()
		if err != nil {
			return err
		}
		res, err := pipelineFor(name).Mine(joined)
		if err != nil {
			return err
		}
		for _, kw := range offlineKeywords {
			a, err := res.Analyze(kw)
			if err != nil {
				return err
			}
			if len(a.Cause)+len(a.Characteristic) == 0 {
				return fmt.Errorf("%s %s: empty analysis", name, kw)
			}
			var want bytes.Buffer
			if err := core.WriteRulesJSON(&want, a); err != nil {
				return err
			}
			if !bytes.Equal(r.analyses[name+"/"+kw], want.Bytes()) {
				return fmt.Errorf("%s %s: cmd/armine output differs from core.Pipeline + Analyze", name, kw)
			}
		}
	}
	return nil
}

// Command e2ebench is the repository benchmark: an out-of-process load
// generator that drives cmd/serve over HTTP and cmd/armine over argv,
// checks their outputs against in-process references, and prints one JSON
// result line. With -trace 1 it also
// replays the workload's inputs in-process through each layer's public
// functions and prints per-layer metrics instead. See README.md.
//
//	bash e2ebench/run.sh --workload pai-steady --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json the program checks itself against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	root := flag.String("root", ".", "checkout root holding BENCHMARK.json and the built programs")
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer replay and prints per-layer metrics")
	flag.Parse()
	if err := run(*root, *workload, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(root, workload string, seed int64, seconds int, traced bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	e, err := newEnv(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		return err
	}
	defer e.close()
	res, err := measure(e, sp, workload, seed, seconds, traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("run invalid")
	}
	return nil
}

// measure runs one workload and returns its result line, with the
// end-to-end metrics, or the per-layer metrics when traced.
func measure(e *env, sp *spec, workload string, seed int64, seconds int, traced bool) (*result, error) {
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	ops := &opStats{}
	res := &result{Correct: true}
	if workload == "offline-paper" {
		r, err := runOffline(e, seed, seconds, ops)
		if err != nil {
			return nil, err
		}
		res.Metrics = offlineMetrics(r)
		if traced {
			if res.Metrics, err = traceOffline(e, r, seed); err != nil {
				return nil, err
			}
		}
	} else {
		r, err := runServerWorkload(e, serverWorkloads[workload], seed, seconds, ops)
		if err != nil {
			return nil, err
		}
		res.Metrics = serverMetrics(r)
		if late := maxDuration(r.ing.late); late > time.Second {
			// An open-loop generator that fell behind its schedule no
			// longer offers the workload's rate.
			res.Correct = false
			fmt.Fprintf(os.Stderr, "e2ebench: generator fell behind schedule by %s\n", late)
		}
		if len(r.ing.late) > 0 {
			fmt.Fprintf(os.Stderr, "e2ebench: generator lateness p99 %.3f ms over %d requests\n", tailQuantile(durationsMS(r.ing.late)), len(r.ing.late))
		}
		// The ack and read tails are reported here, not as metrics: they
		// depend on how requests line up with each mine's burst of work on
		// both cores, and move between runs by more than any bound the
		// benchmark may set.
		ack, q := durationsMS(within(r.ing.ackLat, r.end)), durationsMS(r.rd.lat)
		fmt.Fprintf(os.Stderr, "e2ebench: ack tail %.3f ms over %d requests, read tail %.3f ms over %d reads\n", tailQuantile(ack), len(ack), tailQuantile(q), len(q))
		if traced {
			if res.Metrics, err = traceServer(e, r, seed); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed = ops.attempted, ops.failed
	for _, msg := range ops.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: failed operation:", msg)
	}
	if ops.failed > 0 {
		// Every workload is sized so that nothing fails. A failed request
		// also drops out of the latency samples, so a run with one is
		// invalid rather than fast.
		res.Correct = false
	}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	return res, matchDeclared(res.Metrics, want)
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// matchDeclared requires the printed metrics to be exactly the declared
// ones, with the declared units.
func matchDeclared(got map[string]metric, want []declared) error {
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("printing %d metrics %v, BENCHMARK.json declares %d", len(got), names, len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("declared metric %s not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s in %s, declared %s", d.Name, m.Unit, d.Unit)
		}
	}
	return nil
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func secondsOf(ds []time.Duration) float64 {
	return median(durationsMS(ds)) / 1000
}

func serverMetrics(r *serverRun) map[string]metric {
	inWindow, last := 0, r.start
	for _, a := range r.ing.acks {
		if a.done.Before(r.end) {
			inWindow += a.n
			last = a.done
		}
	}
	ack, fresh, q := durationsMS(within(r.ing.ackLat, r.end)), durationsMS(r.fresh), durationsMS(r.rd.lat)
	return map[string]metric{
		"setup_s":              {secondsOf(r.setups), "s"},
		"ingest_records_per_s": {float64(inWindow) / last.Sub(r.start).Seconds(), "records/s"},
		"ack_p50_ms":           {median(ack), "ms"},
		"fresh_p50_ms":         {median(fresh), "ms"},
		"fresh_p99_ms":         {tailQuantile(fresh), "ms"},
		"query_p50_ms":         {median(q), "ms"},
		"pipeline_s":           {secondsOf(r.pipelines), "s"},
		"peak_rss_mb":          {r.rss, "MiB"},
	}
}

func offlineMetrics(r *offlineRun) map[string]metric {
	var busy time.Duration
	for _, a := range r.acks {
		busy += a
	}
	ack, q := durationsMS(r.acks), durationsMS(r.queries)
	return map[string]metric{
		"setup_s":              {secondsOf(r.setups), "s"},
		"ingest_records_per_s": {float64(r.records) / busy.Seconds(), "records/s"},
		"ack_p50_ms":           {median(ack), "ms"},
		"fresh_p50_ms":         {median(r.fresh), "ms"},
		"fresh_p99_ms":         {tailQuantile(r.fresh), "ms"},
		"query_p50_ms":         {median(q), "ms"},
		"pipeline_s":           {secondsOf(r.passes), "s"},
		"peak_rss_mb":          {median(r.rssMiB), "MiB"},
	}
}

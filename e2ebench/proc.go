package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env holds the per-run paths: the binaries built from this checkout and a
// scratch directory under .bench_build that is removed when the run ends.
type env struct {
	bin  string // built binaries
	work string // this run's scratch directory
	out  string // kept outputs (span files)

	mu    sync.Mutex
	procs map[*proc]bool
}

// newEnv uses the programs in bin and scratch space under the checkout's
// .bench_build directory.
func newEnv(root, bin string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{
		bin:   bin,
		work:  filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		out:   filepath.Join(build, "traces"),
		procs: map[*proc]bool{},
	}
	for _, name := range []string{"serve", "armine", "tracegen"} {
		if _, err := os.Stat(filepath.Join(e.bin, name)); err != nil {
			return nil, fmt.Errorf("program %s not built: %w", name, err)
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// close kills every process still running and removes the scratch
// directory.
func (e *env) close() {
	e.mu.Lock()
	procs := make([]*proc, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	_ = os.RemoveAll(e.work)
}

func (e *env) dir(parts ...string) (string, error) {
	d := filepath.Join(append([]string{e.work}, parts...)...)
	return d, os.MkdirAll(d, 0o755)
}

// proc is a spawned program under test.
type proc struct {
	cmd   *exec.Cmd
	log   string
	done  chan struct{}
	err   error
	start time.Time
}

// spawn starts bin with args, logging its output to a file in the scratch
// directory. Children get SIGKILL if the benchmark itself dies.
func (e *env) spawn(name string, args ...string) (*proc, error) {
	logPath := filepath.Join(e.work, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano()))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{}), start: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	e.mu.Lock()
	e.procs[p] = true
	e.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		e.mu.Lock()
		delete(e.procs, p)
		e.mu.Unlock()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) kill() {
	if !p.exited() {
		_ = p.cmd.Process.Kill()
	}
	<-p.done
}

// stop sends SIGTERM and waits for a clean exit; a process that does not
// drain within the timeout is killed and reported.
func (p *proc) stop(timeout time.Duration) error {
	if p.exited() {
		return fmt.Errorf("%s exited early: %v\n%s", filepath.Base(p.cmd.Path), p.err, p.tail())
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s: %v\n%s", filepath.Base(p.cmd.Path), p.err, p.tail())
		}
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not drain within %s", filepath.Base(p.cmd.Path), timeout)
	}
}

// tail returns the last lines of the process log, for error reports.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// peakRSSMiB reads VmHWM, the process's peak resident set, from /proc.
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newClient returns an HTTP client pinned to one keep-alive connection, so
// the benchmark's connection count is exactly the number of clients.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// get issues one GET and returns status, body and ETag.
func get(ctx context.Context, c *http.Client, url, ifNoneMatch string) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("ETag"), err
}

// waitReady polls base's /v1/rules until it serves a snapshot covering
// total observed records, and returns the time since the process was
// spawned: the set-up time of one server start.
func waitReady(p *proc, c *http.Client, base string, total int, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return 0, fmt.Errorf("server exited during start-up: %v\n%s", p.err, p.tail())
		}
		status, b, _, err := get(context.Background(), c, base+"/v1/rules?limit=1", "")
		var r struct {
			Total int `json:"observed_total"`
		}
		if err == nil && status == http.StatusOK && json.Unmarshal(b, &r) == nil && r.Total == total {
			return time.Since(p.start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("no snapshot of %d records at %s within %s\n%s", total, base, timeout, p.tail())
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

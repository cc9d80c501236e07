package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every server process the benchmark starts so each exit
// path — success, failure, or a signal — can kill and reap them.
var procs struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

// killAll kills and reaps every live server process.
func killAll() {
	procs.Lock()
	cmds := make([]*exec.Cmd, 0, len(procs.live))
	for c := range procs.live {
		cmds = append(cmds, c)
	}
	procs.live = nil
	procs.Unlock()
	for _, c := range cmds {
		_ = c.Process.Kill() // already-exited processes are fine
		_ = c.Wait()
	}
}

// server is one running mqo-serve process.
type server struct {
	cmd *exec.Cmd
	url string
	log *bytes.Buffer
}

// deployment is the set of processes serving one run: a standalone
// node, or a router in front of two workers.
type deployment struct {
	front   string    // base URL clients talk to
	workers []*server // solve nodes (the standalone node, or the workers)
	all     []*server // every process, router included
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches mqo-serve with only addressing flags, so every
// other setting is the program's own default.
func startServer(bin string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	logBuf := &bytes.Buffer{}
	cmd.Stdout = io.Discard
	cmd.Stderr = &limitedWriter{buf: logBuf, max: 64 << 10}
	// The kernel kills the server if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	procs.Lock()
	defer procs.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if procs.live == nil {
		procs.live = map[*exec.Cmd]bool{}
	}
	procs.live[cmd] = true
	return &server{cmd: cmd, url: "http://" + addr, log: logBuf}, nil
}

// limitedWriter keeps the first max bytes of a server's log.
type limitedWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
	max int
}

func (w *limitedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if room := w.max - w.buf.Len(); room > 0 {
		if len(p) > room {
			w.buf.Write(p[:room])
		} else {
			w.buf.Write(p)
		}
	}
	return len(p), nil
}

// deploy starts the processes for a workload and waits until each
// answers /healthz.
func deploy(ctx context.Context, bin string, routed bool) (*deployment, error) {
	d := &deployment{}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	if !routed {
		s, err := startServer(bin)
		if err != nil {
			return fail(err)
		}
		d.workers, d.all, d.front = []*server{s}, []*server{s}, s.url
	} else {
		var peers []string
		for i := 0; i < 2; i++ {
			s, err := startServer(bin, "-role", "worker")
			if err != nil {
				return fail(err)
			}
			d.workers = append(d.workers, s)
			d.all = append(d.all, s)
			peers = append(peers, s.url)
		}
		for _, s := range d.workers {
			if err := waitHealthy(ctx, s); err != nil {
				return fail(err)
			}
		}
		rt, err := startServer(bin, "-role", "router", "-peers", strings.Join(peers, ","))
		if err != nil {
			return fail(err)
		}
		d.all = append(d.all, rt)
		d.front = rt.url
	}
	for _, s := range d.all {
		if err := waitHealthy(ctx, s); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, s *server) error {
	deadline := time.Now().Add(20 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 20s: %v; log:\n%s", s.url, err, s.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills and reaps the deployment's processes.
func (d *deployment) stop() {
	for _, s := range d.all {
		_ = s.cmd.Process.Kill() // an already-exited process is fine
		_ = s.cmd.Wait()
		procs.Lock()
		delete(procs.live, s.cmd)
		procs.Unlock()
	}
	d.all = nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime sums user + system CPU of every serving process.
func (d *deployment) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, s := range d.all {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", s.cmd.Process.Pid)
		}
		ut, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("parsing /proc stat for pid %d", s.cmd.Process.Pid)
		}
		total += time.Duration(ut+st) * time.Second / clockTicks
	}
	return total, nil
}

// peakRSS sums VmHWM (peak resident set) over the serving processes, in
// MiB.
func (d *deployment) peakRSS() (float64, error) {
	total := 0.0
	for _, s := range d.all {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", s.cmd.Process.Pid)
		}
	}
	return total, nil
}

var statsClient = &http.Client{Timeout: 10 * time.Second}

// fetchStats fetches GET /stats as a generic document, so a counter a
// build does not have simply reads as absent.
func fetchStats(ctx context.Context, url string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := statsClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// counter reads a numeric field at a dotted path ("cache.hits").
func counter(doc map[string]any, path string) (float64, bool) {
	var cur any = doc
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

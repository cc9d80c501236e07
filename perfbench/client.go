package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/mqopt/cluster"
)

// newClient returns an HTTP client holding one keep-alive connection:
// each closed-loop connection of the benchmark owns one.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// send performs one request and reads the whole reply; the latency runs
// from send to the last byte (for a stream, the terminal line).
func send(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, raw, lat, err
}

// outcome is one completed operation of the timed phase.
type outcome struct {
	index int // position in the timed stream, or cycle*opStride + op
	lat   time.Duration
	at    time.Time // completion
	ok    bool
}

// tally accumulates what the checks and the quality metrics see.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	shed      int
	errors    []string
	outcomes  []outcome
	gapSum    float64 // Σ (cost − opt) / opt over requests with an optimum
	gapN      int
	costSum   float64 // Σ cost over requests with an optimum
	optSum    float64 // Σ opt over the same requests
	ttbSum    time.Duration
	ttbN      int
	canonical map[int][]byte // serve-warm: first canonical reply per template
}

func newTally() *tally {
	return &tally{canonical: map[int][]byte{}}
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errors) < 10 {
		t.errors = append(t.errors, fmt.Sprintf(format, args...))
	}
}

// quality records a checked cost against its optimum and the modeled
// time-to-best of the reply.
func (t *tally) quality(cost, opt float64, ttb time.Duration, haveTTB bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !math.IsNaN(opt) && opt > 0 {
		t.gapSum += (cost - opt) / opt
		t.gapN++
		t.costSum += cost
		t.optSum += opt
	}
	if haveTTB {
		t.ttbSum += ttb
		t.ttbN++
	}
}

// costsEqual compares a reported cost with the benchmark's own pricing.
func costsEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

// checkSolve verifies one /solve reply: a valid plan per query, a cost
// equal to the benchmark's own pricing and no lower than the exact
// optimum, and on serve-warm the same canonical bytes as every earlier
// reply to the template.
func (t *tally) checkSolve(c call, status int, raw []byte, determinism, record bool) error {
	if status == http.StatusTooManyRequests {
		t.mu.Lock()
		t.shed++
		t.mu.Unlock()
		return fmt.Errorf("shed (429)")
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	var resp cluster.SolveResponse
	if c.stream {
		var last cluster.StreamLine
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			last = cluster.StreamLine{}
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				return fmt.Errorf("stream line: %v", err)
			}
		}
		if last.Result == nil {
			return fmt.Errorf("stream ended without a result line (error %q)", last.Error)
		}
		resp = *last.Result
		if raw2, err := json.Marshal(resp); err == nil {
			raw = raw2
		}
	} else if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decoding reply: %v", err)
	}
	p := c.it.prob
	if !p.Valid(resp.Solution) {
		return fmt.Errorf("solution does not pick exactly one plan per query")
	}
	cost, err := p.Cost(resp.Solution)
	if err != nil {
		return err
	}
	if !costsEqual(resp.Cost, cost) {
		return fmt.Errorf("reported cost %v, solution costs %v", resp.Cost, cost)
	}
	if !math.IsNaN(c.it.opt) && cost < c.it.opt-1e-6 {
		return fmt.Errorf("cost %v below the exact optimum %v", cost, c.it.opt)
	}
	if determinism && c.it.group >= 0 {
		canon, err := cluster.CanonicalResponse(raw)
		if err != nil {
			return err
		}
		t.mu.Lock()
		first, seen := t.canonical[c.it.group]
		if !seen {
			t.canonical[c.it.group] = canon
		}
		t.mu.Unlock()
		if seen && !bytes.Equal(first, canon) {
			return fmt.Errorf("template %d: reply differs from its first canonical reply", c.it.group)
		}
	}
	var ttb time.Duration
	if n := len(resp.Incumbents); n > 0 {
		ttb = time.Duration(resp.Incumbents[n-1].ElapsedNS)
	}
	if record {
		t.quality(cost, c.it.opt, ttb, len(resp.Incumbents) > 0)
	}
	return nil
}

// runSolves drives a solve stream closed-loop over conns connections:
// each connection sends its next request only after the previous reply
// has been read in full. record controls whether outcomes are kept (the
// timed phase) or only checked (warm-up). stop, when non-nil, is polled
// between requests and ends the stream early (state-based warm-up).
func runSolves(ctx context.Context, front string, conns int, calls []call, t *tally, record bool, determinism bool, stop func(done int) bool) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var stopped atomic.Bool
	deadline := time.Now().Add(safetyCap)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for ctx.Err() == nil && !stopped.Load() && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				c := calls[i]
				url := front + "/solve"
				if c.stream {
					url += "?stream=1"
				}
				t.mu.Lock()
				t.attempted++
				t.mu.Unlock()
				status, raw, lat, err := send(ctx, client, http.MethodPost, url, c.it.body)
				if err == nil {
					err = t.checkSolve(c, status, raw, determinism, record)
				}
				if ctx.Err() != nil {
					return
				}
				if err != nil {
					t.fail("request %d: %v", i, err)
				}
				if record {
					t.mu.Lock()
					t.outcomes = append(t.outcomes, outcome{index: i, lat: lat, at: time.Now(), ok: err == nil})
					t.mu.Unlock()
				}
				if stop != nil && stop(i+1) {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// sessionOp is one HTTP operation of a session cycle.
type sessionOp struct {
	method string
	path   string
	body   []byte
	epoch  int // mirror index checked against; -1 for DELETE
}

func (cy *cycle) opList() []sessionOp {
	ops := []sessionOp{{http.MethodPost, "/session", cy.create, 0}}
	for i, d := range cy.deltas {
		ops = append(ops, sessionOp{http.MethodPost, "/session/" + cy.id + "/delta", d, i + 1})
	}
	return append(ops, sessionOp{http.MethodDelete, "/session/" + cy.id, nil, -1})
}

// checkSession verifies one session reply: the epoch's fingerprint must
// equal the benchmark's mirrored workload, its plans must price to the
// reported cost, and the cost may not beat the exact optimum.
func (t *tally) checkSession(cy *cycle, op sessionOp, status int, raw []byte, record bool) error {
	if status == http.StatusTooManyRequests {
		t.mu.Lock()
		t.shed++
		t.mu.Unlock()
		return fmt.Errorf("shed (429)")
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", op.method, op.path, status, bytes.TrimSpace(raw))
	}
	if op.epoch < 0 {
		return nil
	}
	var resp struct {
		ID    string `json:"id"`
		Epoch *struct {
			Epoch       int            `json:"epoch"`
			Cost        float64        `json:"cost"`
			Plans       map[string]int `json:"plans"`
			Fingerprint uint64         `json:"fingerprint"`
			Incumbents  []struct {
				T int64 `json:"T"`
			} `json:"incumbents"`
		} `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decoding session reply: %v", err)
	}
	if resp.ID != cy.id {
		return fmt.Errorf("session id %q, expected %q", resp.ID, cy.id)
	}
	ep := resp.Epoch
	if ep == nil || ep.Epoch != op.epoch {
		return fmt.Errorf("session %s: missing or misnumbered epoch (want %d)", cy.id, op.epoch)
	}
	m := cy.mirrors[op.epoch]
	if ep.Fingerprint != m.fp {
		return fmt.Errorf("session %s epoch %d: fingerprint %016x, mirror %016x", cy.id, op.epoch, ep.Fingerprint, m.fp)
	}
	cost, err := m.costOf(ep.Plans)
	if err != nil {
		return fmt.Errorf("session %s epoch %d: %v", cy.id, op.epoch, err)
	}
	if !costsEqual(ep.Cost, cost) {
		return fmt.Errorf("session %s epoch %d: reported cost %v, plans cost %v", cy.id, op.epoch, ep.Cost, cost)
	}
	if cost < m.opt-1e-6 {
		return fmt.Errorf("session %s epoch %d: cost %v below the exact optimum %v", cy.id, op.epoch, cost, m.opt)
	}
	var ttb time.Duration
	if n := len(ep.Incumbents); n > 0 {
		ttb = time.Duration(ep.Incumbents[n-1].T)
	}
	if record {
		t.quality(cost, m.opt, ttb, len(ep.Incumbents) > 0)
	}
	return nil
}

// runSessions drives session cycles closed-loop: each connection takes
// the next cycle and runs it to the end. A cycle always ends with its
// DELETE, even when an earlier operation failed, so no session outlives
// the run.
func runSessions(ctx context.Context, front string, conns int, cycles []*cycle, t *tally, record bool) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(safetyCap)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(cycles) {
					return
				}
				cy := cycles[i]
				ops := cy.opList()
				for k, op := range ops {
					if k > 0 && k < len(ops)-1 && (ctx.Err() != nil || time.Now().After(deadline)) {
						continue // skip to the DELETE
					}
					t.mu.Lock()
					t.attempted++
					t.mu.Unlock()
					status, raw, lat, err := send(context.WithoutCancel(ctx), client, op.method, front+op.path, op.body)
					if err == nil {
						err = t.checkSession(cy, op, status, raw, record)
					}
					if err != nil {
						t.fail("cycle %d op %d: %v", i, k, err)
					}
					if record {
						t.mu.Lock()
						t.outcomes = append(t.outcomes, outcome{index: i*opStride + k, lat: lat, at: time.Now(), ok: err == nil})
						t.mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

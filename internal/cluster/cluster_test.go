package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/mqopt"
	"repro/mqopt/solverreg"
)

// gateSolver blocks inside Solve until released, so tests can hold a
// node at capacity deterministically.
type gateSolver struct {
	entered chan struct{} // ticks once per Solve entry
	release chan struct{} // closed to let solves finish
}

func (g *gateSolver) Name() string { return "gate" }

func (g *gateSolver) Solve(ctx context.Context, p *mqopt.Problem, opts ...mqopt.Option) (*mqopt.Result, error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &mqopt.Result{Solver: "gate", Solution: make([]int, p.NumQueries())}, nil
}

// newTestService builds an unbatched service over the registry.
func newTestService(t *testing.T, opts ...mqopt.Option) *mqopt.Service {
	t.Helper()
	svc, err := mqopt.NewService(solverreg.New, opts...)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// newTestWorker spins up one worker node on a real loopback listener.
func newTestWorker(t *testing.T, svc *mqopt.Service, maxConcurrent, maxQueue int, retryAfter time.Duration) (*Node, *httptest.Server) {
	t.Helper()
	node, err := NewNode(NodeConfig{
		Service:       svc,
		MaxConcurrent: maxConcurrent,
		MaxQueue:      maxQueue,
		RetryAfter:    retryAfter,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return node, srv
}

// solveBody renders a /solve body for the seed-th generated instance.
func solveBody(t *testing.T, seed int64) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"problem": %s, "solver": "greedy", "seed": 3}`,
		instanceJSON(t, seed)))
}

func postSolve(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/solve: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

// canonical strips wall-clock incumbent timings so responses compare
// on their deterministic content.
func canonical(t *testing.T, raw []byte) []byte {
	t.Helper()
	out, err := CanonicalResponse(raw)
	if err != nil {
		t.Fatalf("CanonicalResponse(%s): %v", raw, err)
	}
	return out
}

// TestRoutedMatchesStandalone is the cluster determinism contract: the
// same request solved through the router (whichever worker owns it)
// returns responses byte-identical to a standalone node's, up to
// wall-clock incumbent timestamps (see CanonicalResponse).
func TestRoutedMatchesStandalone(t *testing.T) {
	var services []*mqopt.Service
	var peers []string
	for i := 0; i < 3; i++ {
		svc := newTestService(t, mqopt.WithParallelism(1))
		_, srv := newTestWorker(t, svc, 2, 4, 0)
		services = append(services, svc)
		peers = append(peers, srv.URL)
	}
	standalone := newTestService(t, mqopt.WithParallelism(1))
	_, soloSrv := newTestWorker(t, standalone, 2, 4, 0)

	rt := NewRouter(RouterConfig{Peers: peers})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	const n = 8
	for seed := int64(1); seed <= n; seed++ {
		body := solveBody(t, seed)
		viaRouter, routed := postSolve(t, routerSrv.URL, body)
		direct, solo := postSolve(t, soloSrv.URL, body)
		if viaRouter.StatusCode != http.StatusOK || direct.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status routed=%d standalone=%d, want 200/200 (routed body: %s)",
				seed, viaRouter.StatusCode, direct.StatusCode, routed)
		}
		if routed, solo = canonical(t, routed), canonical(t, solo); !bytes.Equal(routed, solo) {
			t.Errorf("seed %d: routed response differs from standalone:\nrouted:     %s\nstandalone: %s",
				seed, routed, solo)
		}
	}

	// The ring spread the 8 shapes over the workers rather than piling
	// everything on one (deterministic: fingerprints and ring are fixed).
	var total uint64
	busy := 0
	for _, svc := range services {
		r := svc.Stats().Requests
		total += r
		if r > 0 {
			busy++
		}
	}
	if total != n {
		t.Errorf("workers saw %d requests in total, want %d", total, n)
	}
	if busy < 2 {
		t.Errorf("only %d worker(s) received requests; the ring should spread %d shapes", busy, n)
	}
}

// TestLoadShed429 drives a worker past its admission bounds and checks
// the shed path: 429 with a Retry-After header, both directly and
// relayed through the router.
func TestLoadShed429(t *testing.T) {
	gate := &gateSolver{entered: make(chan struct{}, 1), release: make(chan struct{})}
	resolver := func(name string) (mqopt.Solver, error) {
		if name == "gate" {
			return gate, nil
		}
		return solverreg.New(name)
	}
	svc, err := mqopt.NewService(resolver)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	node, srv := newTestWorker(t, svc, 1, 0, 2*time.Second)

	rt := NewRouter(RouterConfig{Peers: []string{srv.URL}})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	body := []byte(fmt.Sprintf(`{"problem": %s, "solver": "gate"}`, instanceJSON(t, 1)))
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, srv.URL, body)
		firstDone <- resp.StatusCode
	}()
	<-gate.entered // the worker's only slot is now held

	for _, url := range []string{srv.URL, routerSrv.URL} {
		resp, out := postSolve(t, url, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("POST %s at capacity: status %d (%s), want 429", url, resp.StatusCode, out)
		}
		if got := resp.Header.Get("Retry-After"); got != "2" {
			t.Errorf("POST %s: Retry-After = %q, want \"2\"", url, got)
		}
	}
	if shed := node.Admission().Stats().Shed; shed != 2 {
		t.Errorf("Shed = %d, want 2", shed)
	}

	close(gate.release)
	if status := <-firstDone; status != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", status)
	}
}

// TestMembershipRebuild exercises the full lifecycle: health checks
// evict a dead worker, forwarding failures evict eagerly, /register
// joins a new worker, and the ring matches BuildRing of the alive set
// at every step.
func TestMembershipRebuild(t *testing.T) {
	svcA := newTestService(t)
	_, srvA := newTestWorker(t, svcA, 2, 4, 0)
	svcB := newTestService(t)
	_, srvB := newTestWorker(t, svcB, 2, 4, 0)

	rt := NewRouter(RouterConfig{Peers: []string{srvA.URL, srvB.URL}})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	wantRing := func(label string, members ...string) {
		t.Helper()
		want := BuildRing(members, DefaultReplicas)
		if !reflect.DeepEqual(rt.Ring().Nodes(), want.Nodes()) {
			t.Fatalf("%s: ring members %v, want %v", label, rt.Ring().Nodes(), want.Nodes())
		}
	}
	wantRing("initial", srvA.URL, srvB.URL)
	rt.CheckNow(context.Background())
	wantRing("after healthy sweep", srvA.URL, srvB.URL)

	// Find a body owned by B, then kill B: the forward fails with 502,
	// B is marked dead eagerly, and the retry lands on A.
	var bBody []byte
	for seed := int64(1); seed <= 100; seed++ {
		body := solveBody(t, seed)
		req, _, err := decode(t, string(body), 0)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		sreq, err := BuildRequest(req)
		if err != nil {
			t.Fatalf("BuildRequest: %v", err)
		}
		if owner, _ := rt.Ring().Owner(sreq.Problem.Fingerprint()); owner == srvB.URL {
			bBody = body
			break
		}
	}
	if bBody == nil {
		t.Fatal("no seed in 1..100 hashed to worker B")
	}
	srvB.Close()

	resp, _ := postSolve(t, routerSrv.URL, bBody)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("forward to dead worker: status %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("502 response carries no Retry-After")
	}
	wantRing("after forward failure", srvA.URL) // marked dead eagerly

	resp, out := postSolve(t, routerSrv.URL, bBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after eviction: status %d (%s), want 200", resp.StatusCode, out)
	}

	// A health sweep confirms the picture without resurrecting B.
	rt.CheckNow(context.Background())
	wantRing("after sweep with B dead", srvA.URL)

	// A new worker joins over HTTP and ownership extends to it.
	svcC := newTestService(t)
	_, srvC := newTestWorker(t, svcC, 2, 4, 0)
	reg, err := http.Post(routerSrv.URL+"/register", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url": %q}`, srvC.URL)))
	if err != nil {
		t.Fatalf("POST /register: %v", err)
	}
	io.Copy(io.Discard, reg.Body)
	reg.Body.Close()
	if reg.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d, want 200", reg.StatusCode)
	}
	wantRing("after register", srvA.URL, srvC.URL)

	// Bad registrations are rejected.
	for _, bad := range []string{`{"url": "not a url"}`, `{"addr": "http://x"}`, `{"url": ""}`} {
		resp, err := http.Post(routerSrv.URL+"/register", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST /register: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRouterValidation: malformed requests die at the router with the
// same strict decoding a worker applies — nothing bad gets forwarded.
func TestRouterValidation(t *testing.T) {
	svc := newTestService(t)
	_, srv := newTestWorker(t, svc, 2, 4, 0)
	rt := NewRouter(RouterConfig{Peers: []string{srv.URL}, MaxBody: 1 << 16})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"unknown field", `{"solvr": "qa"}`, http.StatusBadRequest},
		{"trailing data", `{"solver": "qa"} junk`, http.StatusBadRequest},
		{"no problem", `{"solver": "qa"}`, http.StatusBadRequest},
		{"oversize", `{"workload": "` + strings.Repeat("x", 1<<17) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := postSolve(t, routerSrv.URL, []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Errorf("status %d (%s), want %d", resp.StatusCode, out, tc.status)
			}
		})
	}
	if got := svc.Stats().Requests; got != 0 {
		t.Errorf("worker saw %d requests; invalid bodies must not be forwarded", got)
	}

	// GET is not a solve.
	resp, err := http.Get(routerSrv.URL + "/solve")
	if err != nil {
		t.Fatalf("GET /solve: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

// TestRouterEmptyRing: a router with no live workers sheds rather than
// hangs.
func TestRouterEmptyRing(t *testing.T) {
	rt := NewRouter(RouterConfig{})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	resp, _ := postSolve(t, routerSrv.URL, solveBody(t, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response carries no Retry-After")
	}
}

// readStream parses an NDJSON response into lines.
func readStream(t *testing.T, r io.Reader) []StreamLine {
	t.Helper()
	var lines []StreamLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	return lines
}

// TestStreaming: ?stream=1 yields NDJSON incumbent lines and exactly
// one terminal result, identical whether the client talks to the worker
// or through the router, and the terminal result agrees with the
// non-streamed response.
func TestStreaming(t *testing.T) {
	svc := newTestService(t, mqopt.WithParallelism(1))
	_, srv := newTestWorker(t, svc, 2, 4, 0)
	rt := NewRouter(RouterConfig{Peers: []string{srv.URL}})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	body := solveBody(t, 2)
	_, plain := postSolve(t, srv.URL, body)
	var want SolveResponse
	if err := json.Unmarshal(plain, &want); err != nil {
		t.Fatalf("decoding plain response: %v", err)
	}

	for _, base := range []string{srv.URL, routerSrv.URL} {
		resp, err := http.Post(base+"/solve?stream=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s/solve?stream=1: %v", base, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("%s: Content-Type = %q, want application/x-ndjson", base, ct)
		}
		lines := readStream(t, resp.Body)
		resp.Body.Close()
		if len(lines) == 0 {
			t.Fatalf("%s: empty stream", base)
		}
		last := lines[len(lines)-1]
		if last.Result == nil || last.Error != "" {
			t.Fatalf("%s: terminal line = %+v, want a result", base, last)
		}
		for _, l := range lines[:len(lines)-1] {
			if l.Incumbent == nil {
				t.Errorf("%s: non-terminal line without incumbent: %+v", base, l)
			}
		}
		if last.Result.Cost != want.Cost || !reflect.DeepEqual(last.Result.Solution, want.Solution) {
			t.Errorf("%s: streamed result (cost %g, %v) differs from plain (cost %g, %v)",
				base, last.Result.Cost, last.Result.Solution, want.Cost, want.Solution)
		}
		// The solve improved at least once, so the stream carried the
		// anytime trajectory, not just the final answer.
		if len(want.Incumbents) > 0 && len(lines) < 2 {
			t.Errorf("%s: %d incumbents recorded but stream had no incumbent lines", base, len(want.Incumbents))
		}
	}
}

// TestNodeStats: /stats reports service and admission counters.
func TestNodeStats(t *testing.T) {
	svc := newTestService(t)
	_, srv := newTestWorker(t, svc, 3, 5, 0)
	if resp, _ := postSolve(t, srv.URL, solveBody(t, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d, want 200", resp.StatusCode)
	}

	var raw any
	getJSON(t, srv.URL+"/stats", &raw)
	requireStatsKeys(t, "/stats", raw)

	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Requests != 1 {
		t.Errorf("requests = %d, want 1", st.Requests)
	}
	if st.Admission.MaxConcurrent != 3 || st.Admission.MaxQueue != 5 {
		t.Errorf("admission bounds = (%d, %d), want (3, 5)",
			st.Admission.MaxConcurrent, st.Admission.MaxQueue)
	}
	if st.Admission.Executing != 0 || st.Admission.Shed != 0 {
		t.Errorf("admission counters = %+v, want idle", st.Admission)
	}
}

// statsKeys are the numeric keys of a node's GET /stats body. perfbench
// reads requests, coalesced, cache.* and admission.shed to derive its
// per-layer metrics and drops a metric whose key is missing, so the
// schema must not lose any of them.
var statsKeys = []string{
	"requests", "batches", "coalesced", "in_flight",
	"cache.hits", "cache.misses", "cache.shared", "cache.evictions", "cache.entries",
	"admission.executing", "admission.queued", "admission.shed",
	"admission.max_concurrent", "admission.max_queue",
}

// requireStatsKeys checks that doc, a node's stats object named label
// in failure messages, carries every statsKeys entry as a JSON number.
func requireStatsKeys(t *testing.T, label string, doc any) {
	t.Helper()
	for _, path := range statsKeys {
		cur := doc
		for _, k := range strings.Split(path, ".") {
			cur = statsField(t, label, cur, k)
		}
		if _, ok := cur.(float64); !ok {
			t.Fatalf("%s.%s = %v, want a number", label, path, cur)
		}
	}
}

// statsField returns key of the JSON object doc, failing the test when
// doc is not an object or lacks the key.
func statsField(t *testing.T, label string, doc any, key string) any {
	t.Helper()
	m, ok := doc.(map[string]any)
	if !ok {
		t.Fatalf("%s: %v is not an object", label, doc)
	}
	v, ok := m[key]
	if !ok {
		t.Fatalf("%s lacks %q", label, key)
	}
	return v
}

// TestRouterHealthLoop: Start/Close cycles the background loop and a
// short interval notices a death without an explicit CheckNow.
func TestRouterHealthLoop(t *testing.T) {
	svcA := newTestService(t)
	_, srvA := newTestWorker(t, svcA, 2, 4, 0)
	svcB := newTestService(t)
	_, srvB := newTestWorker(t, svcB, 2, 4, 0)

	rt := NewRouter(RouterConfig{
		Peers:          []string{srvA.URL, srvB.URL},
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
	})
	rt.Start()
	defer rt.Close()

	srvB.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Ring().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("health loop never evicted the dead worker; members %v", rt.Ring().Nodes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Ring().Nodes(); !reflect.DeepEqual(got, []string{srvA.URL}) {
		t.Errorf("members = %v, want [%s]", got, srvA.URL)
	}
}

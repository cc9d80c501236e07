package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/mqopt"
	clusterapi "repro/mqopt/cluster"
	"repro/mqopt/solverreg"
)

// testServer spins up the HTTP surface over a fresh service.
func testServer(t *testing.T, defaults ...mqopt.Option) (*httptest.Server, *mqopt.Service) {
	t.Helper()
	svc, err := mqopt.NewService(solverreg.New, defaults...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

// instanceJSON renders one generated instance in the wire format.
func instanceJSON(t *testing.T) []byte {
	t.Helper()
	p, err := mqopt.GenerateEmbeddable(2, nil, mqopt.Class{Queries: 8, PlansPerQuery: 2}, mqopt.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSolve(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSolveEndpoint: a full request/response round trip, plus the
// determinism contract over HTTP — the same request twice (second time
// warm) returns byte-identical bodies.
func TestSolveEndpoint(t *testing.T) {
	srv, svc := testServer(t)
	inst := instanceJSON(t)
	body := fmt.Sprintf(`{"problem": %s, "solver": "qa", "seed": 7, "budget": "8ms", "runs": 20}`, inst)

	resp1, data1 := postSolve(t, srv.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, data1)
	}
	var out solveResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if out.Solver != "QA" || len(out.Solution) != 8 || len(out.Incumbents) == 0 {
		t.Fatalf("unexpected response: %+v", out)
	}

	resp2, data2 := postSolve(t, srv.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if !bytes.Equal(data1, data2) {
		t.Errorf("same request diverged between cold and warm cache:\n%s\n%s", data1, data2)
	}
	if st := svc.Stats().Cache; st.Hits == 0 {
		t.Errorf("repeat request did not hit the cache: %+v", st)
	}
}

// TestSolveEndpointCacheOff: the per-request escape hatch leaves the
// shared cache untouched and still returns the same result body.
func TestSolveEndpointCacheOff(t *testing.T) {
	srv, svc := testServer(t)
	inst := instanceJSON(t)
	on := fmt.Sprintf(`{"problem": %s, "seed": 3, "budget": "8ms", "runs": 20}`, inst)
	off := fmt.Sprintf(`{"problem": %s, "seed": 3, "budget": "8ms", "runs": 20, "cache": "off"}`, inst)

	respOff, dataOff := postSolve(t, srv.URL, off)
	if respOff.StatusCode != http.StatusOK {
		t.Fatalf("cache-off status %d: %s", respOff.StatusCode, dataOff)
	}
	if st := svc.Stats().Cache; st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("cache consulted despite cache=off: %+v", st)
	}
	_, dataOn := postSolve(t, srv.URL, on)
	if !bytes.Equal(dataOn, dataOff) {
		t.Errorf("cache on/off bodies differ:\n%s\n%s", dataOn, dataOff)
	}
}

// TestStatsEndpoint: counters move and serialize as documented.
func TestStatsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	inst := instanceJSON(t)
	body := fmt.Sprintf(`{"problem": %s, "seed": 1, "budget": "4ms", "runs": 10}`, inst)
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postSolve(t, srv.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("requests = %d, want %d", st.Requests, n)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one shape)", st.Cache.Misses)
	}
	if st.Cache.Hits+st.Cache.Shared != n-1 {
		t.Errorf("hits+shared = %d, want %d", st.Cache.Hits+st.Cache.Shared, n-1)
	}
}

// TestBadRequests: malformed inputs come back 4xx, not 500.
func TestBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	inst := instanceJSON(t)
	for name, body := range map[string]string{
		"empty":       `{}`,
		"bad json":    `{`,
		"bad problem": `{"problem": {"queryPlans": [[]], "costs": []}}`,
		"bad budget":  fmt.Sprintf(`{"problem": %s, "budget": "soon"}`, inst),
		"bad cache":   fmt.Sprintf(`{"problem": %s, "cache": "maybe"}`, inst),
	} {
		resp, data := postSolve(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	// Unknown solver surfaces the registry error.
	resp, data := postSolve(t, srv.URL, fmt.Sprintf(`{"problem": %s, "solver": "warp-drive"}`, inst))
	if resp.StatusCode == http.StatusOK {
		t.Errorf("unknown solver accepted: %s", data)
	}
	// GET on /solve is rejected.
	get, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", get.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestHeaderDeadline: the server closes a connection that stalls
// mid-header, while a kept-alive connection may idle past the deadline
// and still send its next request.
func TestHeaderDeadline(t *testing.T) {
	if s := newServer("", nil); s.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 || s.ReadTimeout != 0 {
		t.Fatalf("read deadlines: header %v, whole request %v; want %v and none",
			s.ReadHeaderTimeout, s.ReadTimeout, readHeaderTimeout)
	}
	const deadline = 100 * time.Millisecond
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Config = newServer("", srv.Config.Handler)
	srv.Config.ReadHeaderTimeout = deadline
	srv.Start()
	defer srv.Close()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	stalled := dial()
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, stalled); err != nil || n != 0 {
		t.Fatalf("stalled connection: read %d bytes, err %v; want the server to close it silently", n, err)
	}

	idle := dial()
	defer idle.Close()
	r := bufio.NewReader(idle)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(3 * deadline)
		}
		if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(r, nil)
		if err != nil {
			t.Fatalf("request %d on the kept-alive connection: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
}

// TestServiceClosedSurfacesAs503: requests after Close are rejected
// with Service Unavailable — what a load balancer drains on.
func TestServiceClosedSurfacesAs503(t *testing.T) {
	srv, svc := testServer(t)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _ := postSolve(t, srv.URL, fmt.Sprintf(`{"problem": %s}`, instanceJSON(t)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
}

// TestBatchedEndpoint: the admission window composes with HTTP handlers
// (requests from separate connections coalesce).
func TestBatchedEndpoint(t *testing.T) {
	srv, svc := testServer(t, mqopt.WithBatchWindow(50*time.Millisecond))
	inst := instanceJSON(t)
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"problem": %s, "seed": %d, "budget": "4ms", "runs": 10}`, inst, seed)
			resp, data := postSolve(t, srv.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, data)
			}
		}(i + 1)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Coalesced == 0 {
		t.Errorf("no coalescing across %d concurrent same-shape requests: %+v", n, st)
	}
}

// workloadJSON renders one generated workload as a JSON string literal
// for embedding in a request body.
func workloadJSON(t *testing.T) string {
	t.Helper()
	wl, err := mqopt.GenerateWorkload(3, mqopt.WorkloadGenConfig{Queries: 8, Relations: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSolveEndpointWorkload: the workload field derives the instance
// server-side and feeds workload-native solvers; repeats are
// byte-identical.
func TestSolveEndpointWorkload(t *testing.T) {
	srv, _ := testServer(t)
	wl := workloadJSON(t)

	body := fmt.Sprintf(`{"workload": %s, "solver": "greedy-join", "seed": 7, "budget": "10ms"}`, wl)
	resp1, data1 := postSolve(t, srv.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, data1)
	}
	var out solveResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if out.Solver != "GREEDY-JOIN" || len(out.Solution) != 8 || len(out.Incumbents) == 0 {
		t.Fatalf("unexpected response: %+v", out)
	}
	_, data2 := postSolve(t, srv.URL, body)
	if !bytes.Equal(data1, data2) {
		t.Fatal("repeated workload request bodies differ")
	}

	// A portfolio with a workload-native member works over the wire too.
	pf := fmt.Sprintf(`{"workload": %s, "solver": "portfolio", "members": ["qa", "greedy-join"], "seed": 5, "budget": "10ms", "runs": 20}`, wl)
	respPf, dataPf := postSolve(t, srv.URL, pf)
	if respPf.StatusCode != http.StatusOK {
		t.Fatalf("portfolio status %d: %s", respPf.StatusCode, dataPf)
	}
	var pfOut solveResponse
	if err := json.Unmarshal(dataPf, &pfOut); err != nil {
		t.Fatal(err)
	}
	if pfOut.Winner == "" {
		t.Fatalf("portfolio response has no winner: %+v", pfOut)
	}
}

// TestSolveEndpointWorkloadBadRequests: workload-specific 400s —
// problem+workload together, malformed workload text, and greedy-join
// without a workload.
func TestSolveEndpointWorkloadBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	inst := instanceJSON(t)
	wl := workloadJSON(t)

	for name, body := range map[string]string{
		"both":      fmt.Sprintf(`{"problem": %s, "workload": %s}`, inst, wl),
		"malformed": `{"workload": "rel r1\nquery q {"}`,
	} {
		resp, data := postSolve(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	// greedy-join on a bare instance fails the solve (not a 400 — the
	// request is well formed; the solver rejects it).
	resp, data := postSolve(t, srv.URL, fmt.Sprintf(`{"problem": %s, "solver": "greedy-join"}`, inst))
	if resp.StatusCode == http.StatusOK {
		t.Errorf("greedy-join without workload accepted: %s", data)
	}
}

// TestSolveEndpointTopology: per-request topology selection over the
// wire — pegasus solves deterministically, unknown kinds and malformed
// dims map to 400.
func TestSolveEndpointTopology(t *testing.T) {
	srv, _ := testServer(t)
	inst := instanceJSON(t)

	body := fmt.Sprintf(`{"problem": %s, "solver": "qa", "seed": 7, "budget": "8ms", "runs": 20, "topology": "pegasus"}`, inst)
	resp1, data1 := postSolve(t, srv.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, data1)
	}
	var out solveResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if out.Solver != "QA" || len(out.Solution) != 8 {
		t.Fatalf("unexpected response: %+v", out)
	}
	// Deterministic across repeats (the second run is a cache hit).
	_, data2 := postSolve(t, srv.URL, body)
	if !bytes.Equal(data1, data2) {
		t.Fatal("repeated pegasus request bodies differ")
	}
	// Explicit dims agree with the default grid.
	withDims := fmt.Sprintf(`{"problem": %s, "solver": "qa", "seed": 7, "budget": "8ms", "runs": 20, "topology": "pegasus", "topology_dims": [12, 12]}`, inst)
	_, data3 := postSolve(t, srv.URL, withDims)
	if !bytes.Equal(data1, data3) {
		t.Fatal("explicit 12x12 dims diverge from the default grid")
	}

	for _, bad := range []string{
		fmt.Sprintf(`{"problem": %s, "topology": "moebius"}`, inst),
		fmt.Sprintf(`{"problem": %s, "topology": "pegasus", "topology_dims": [12]}`, inst),
	} {
		resp, data := postSolve(t, srv.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad topology request got status %d: %s", resp.StatusCode, data)
		}
	}
}

// TestStrictDecoding: the hardened decoder rejects unknown fields (a
// typo'd "solvr" must not silently solve with the default backend) and
// trailing data after the JSON body.
func TestStrictDecoding(t *testing.T) {
	srv, _ := testServer(t)
	inst := instanceJSON(t)
	for name, body := range map[string]string{
		"unknown field":    fmt.Sprintf(`{"problem": %s, "solvr": "qa"}`, inst),
		"trailing json":    fmt.Sprintf(`{"problem": %s} {"solver": "qa"}`, inst),
		"trailing garbage": fmt.Sprintf(`{"problem": %s} not json`, inst),
	} {
		resp, data := postSolve(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
}

// TestOversizeBody413: the body bound rejects oversized requests with
// 413 before buffering them.
func TestOversizeBody413(t *testing.T) {
	svc, err := mqopt.NewService(solverreg.New)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	node, err := clusterapi.NewNode(clusterapi.NodeConfig{Service: svc, MaxBody: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)

	resp, data := postSolve(t, srv.URL, fmt.Sprintf(`{"problem": %s}`, instanceJSON(t)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d (%s), want 413", resp.StatusCode, data)
	}
}

// TestStreamingEndpoint: ?stream=1 returns NDJSON — incumbent lines
// then one terminal result line.
func TestStreamingEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	body := fmt.Sprintf(`{"problem": %s, "solver": "qa", "seed": 7, "budget": "8ms", "runs": 20}`, instanceJSON(t))
	resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []clusterapi.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line clusterapi.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream had %d lines, want incumbents plus a terminal result", len(lines))
	}
	last := lines[len(lines)-1]
	if last.Result == nil || last.Error != "" {
		t.Fatalf("terminal line = %+v, want a result", last)
	}
	for _, l := range lines[:len(lines)-1] {
		if l.Incumbent == nil {
			t.Errorf("non-terminal line without incumbent: %+v", l)
		}
	}
}

// TestLoadShed429Endpoint: a node at its admission bounds sheds with
// 429 and a Retry-After header.
func TestLoadShed429Endpoint(t *testing.T) {
	svc, err := mqopt.NewService(solverreg.New)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	node, err := clusterapi.NewNode(clusterapi.NodeConfig{
		Service:       svc,
		MaxConcurrent: 1,
		MaxQueue:      0,
		RetryAfter:    3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)

	// Hold the single slot with a wall-clock-budget hill climb.
	hold := fmt.Sprintf(`{"problem": %s, "solver": "climb", "budget": "3s"}`, instanceJSON(t))
	done := make(chan struct{})
	go func() {
		defer close(done)
		postSolve(t, srv.URL, hold)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for node.Admission().Stats().Executing == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holding request never started executing")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data := postSolve(t, srv.URL, hold)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d (%s), want 429", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	<-done
}

// TestRouterRole: the facade wires a router over a worker — routed
// solves succeed and /ring reports the membership.
func TestRouterRole(t *testing.T) {
	srv, _ := testServer(t)
	rt := clusterapi.NewRouter(clusterapi.RouterConfig{Peers: []string{srv.URL}})
	routerSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(routerSrv.Close)

	body := fmt.Sprintf(`{"problem": %s, "solver": "qa", "seed": 7, "budget": "8ms", "runs": 20}`, instanceJSON(t))
	direct, dataDirect := postSolve(t, srv.URL, body)
	routed, dataRouted := postSolve(t, routerSrv.URL, body)
	if direct.StatusCode != http.StatusOK || routed.StatusCode != http.StatusOK {
		t.Fatalf("status direct=%d routed=%d, want 200/200", direct.StatusCode, routed.StatusCode)
	}
	canonDirect, err := clusterapi.CanonicalResponse(dataDirect)
	if err != nil {
		t.Fatal(err)
	}
	canonRouted, err := clusterapi.CanonicalResponse(dataRouted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonDirect, canonRouted) {
		t.Errorf("routed response differs from direct:\n%s\n%s", canonRouted, canonDirect)
	}

	ring, err := http.Get(routerSrv.URL + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Body.Close()
	var members struct {
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(ring.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	if len(members.Members) != 1 || members.Members[0] != srv.URL {
		t.Errorf("ring members = %v, want [%s]", members.Members, srv.URL)
	}
}

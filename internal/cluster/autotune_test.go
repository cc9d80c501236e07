package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/mqopt"
)

// newTunedWorker spins up one worker carrying an autotune model: the
// service solves "autotune": true requests against it and the node
// serves it on GET /model.
func newTunedWorker(t *testing.T) (*mqopt.TuneModel, *httptest.Server) {
	t.Helper()
	model := mqopt.NewTuneModel()
	svc := newTestService(t, mqopt.WithParallelism(1), mqopt.WithAutoTune(model))
	node, err := NewNode(NodeConfig{
		Service:       svc,
		MaxConcurrent: 2,
		MaxQueue:      4,
		Model:         model,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return model, srv
}

// TestNodeModelEndpoint: GET /model snapshots the scheduler model as
// canonical JSON that round-trips through ReadTuneModel, and a node
// configured without a model answers 404.
func TestNodeModelEndpoint(t *testing.T) {
	model, srv := newTunedWorker(t)

	// Learn something first so the snapshot carries history, not just
	// the arm inventory.
	body := []byte(fmt.Sprintf(`{"problem": %s, "autotune": true, "seed": 3, "budget": "50ms"}`,
		instanceJSON(t, 1)))
	if resp, out := postSolve(t, srv.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("autotune solve: status %d (%s), want 200", resp.StatusCode, out)
	}

	resp, err := http.Get(srv.URL + "/model")
	if err != nil {
		t.Fatalf("GET /model: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /model: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading model: %v", err)
	}
	got, err := mqopt.ReadTuneModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTuneModel(snapshot): %v", err)
	}
	if got.Fingerprint() != model.Fingerprint() {
		t.Errorf("snapshot fingerprint %016x, want %016x", got.Fingerprint(), model.Fingerprint())
	}
	var rewrote bytes.Buffer
	if err := got.Write(&rewrote); err != nil {
		t.Fatalf("re-encoding snapshot: %v", err)
	}
	if !bytes.Equal(rewrote.Bytes(), raw) {
		t.Error("snapshot is not canonical: decode+encode changed the bytes")
	}

	// A plain node has no model to serve.
	_, plain := newTestWorker(t, newTestService(t), 2, 4, 0)
	resp404, err := http.Get(plain.URL + "/model")
	if err != nil {
		t.Fatalf("GET /model (no model): %v", err)
	}
	io.Copy(io.Discard, resp404.Body)
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("GET /model without a model: status %d, want 404", resp404.StatusCode)
	}
}

// TestSolveAutotune: "autotune": true routes the request through the
// scheduler and records an observation into the node's model; combining
// it with an explicit solver is a 400, and a repeated solve keeps
// learning.
func TestSolveAutotune(t *testing.T) {
	model, srv := newTunedWorker(t)

	body := []byte(fmt.Sprintf(`{"problem": %s, "autotune": true, "seed": 3, "budget": "50ms"}`,
		instanceJSON(t, 2)))
	resp, out := postSolve(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("autotune solve: status %d (%s), want 200", resp.StatusCode, out)
	}
	var sr SolveResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(sr.Solution) == 0 {
		t.Error("autotune solve returned no solution")
	}
	st := model.Stats()
	if st.Observations != 1 || st.Classes != 1 {
		t.Errorf("model after one solve: %d observations over %d classes, want 1 over 1",
			st.Observations, st.Classes)
	}

	if resp, out := postSolve(t, srv.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("second autotune solve: status %d (%s), want 200", resp.StatusCode, out)
	} else if st := model.Stats(); st.Observations != 2 {
		t.Errorf("model after two solves: %d observations, want 2", st.Observations)
	}

	// The scheduler owns solver choice; an explicit solver conflicts.
	conflict := []byte(fmt.Sprintf(`{"problem": %s, "autotune": true, "solver": "qa"}`,
		instanceJSON(t, 2)))
	if resp, out := postSolve(t, srv.URL, conflict); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("autotune+solver: status %d (%s), want 400", resp.StatusCode, out)
	}

	// Spelling it as solver "autotune" is equivalent, not a conflict.
	named := []byte(fmt.Sprintf(`{"problem": %s, "autotune": true, "solver": "autotune", "seed": 3, "budget": "50ms"}`,
		instanceJSON(t, 2)))
	if resp, out := postSolve(t, srv.URL, named); resp.StatusCode != http.StatusOK {
		t.Errorf(`solver "autotune" + autotune flag: status %d (%s), want 200`, resp.StatusCode, out)
	}
}

// TestNodeStatsAutotune: /stats summarises the model when the node
// carries one and omits the block when it does not.
func TestNodeStatsAutotune(t *testing.T) {
	model, srv := newTunedWorker(t)
	body := []byte(fmt.Sprintf(`{"problem": %s, "autotune": true, "seed": 3, "budget": "50ms"}`,
		instanceJSON(t, 3)))
	if resp, out := postSolve(t, srv.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("autotune solve: status %d (%s), want 200", resp.StatusCode, out)
	}

	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Autotune == nil {
		t.Fatal("stats carry no autotune summary")
	}
	want := model.Stats()
	if st.Autotune.Observations != want.Observations || st.Autotune.Classes != want.Classes {
		t.Errorf("autotune summary = %+v, want %d observations over %d classes",
			st.Autotune, want.Observations, want.Classes)
	}
	if wantFP := fmt.Sprintf("%016x", want.Fingerprint); st.Autotune.Fingerprint != wantFP {
		t.Errorf("autotune fingerprint = %q, want %q", st.Autotune.Fingerprint, wantFP)
	}

	_, plain := newTestWorker(t, newTestService(t), 2, 4, 0)
	var bare StatsResponse
	getJSON(t, plain.URL+"/stats", &bare)
	if bare.Autotune != nil {
		t.Errorf("model-less node reports autotune summary %+v, want none", bare.Autotune)
	}
}

// TestRouterStats: the router's GET /stats aggregates live counters
// across the membership — totals are the sums of per-peer replies, and
// a peer that stops answering is listed as unreachable rather than
// silently dropped from the picture.
func TestRouterStats(t *testing.T) {
	var servers []*httptest.Server
	var peers []string
	for i := 0; i < 2; i++ {
		svc := newTestService(t, mqopt.WithParallelism(1))
		_, srv := newTestWorker(t, svc, 2, 4, 0)
		servers = append(servers, srv)
		peers = append(peers, srv.URL)
	}
	rt := NewRouter(RouterConfig{Peers: peers})
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	const n = 6
	for seed := int64(1); seed <= n; seed++ {
		if resp, out := postSolve(t, routerSrv.URL, solveBody(t, seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s), want 200", seed, resp.StatusCode, out)
		}
	}

	var raw any
	getJSON(t, routerSrv.URL+"/stats", &raw)
	requireStatsKeys(t, "/stats totals", statsField(t, "/stats", raw, "totals"))
	perPeer := statsField(t, "/stats", raw, "per_peer")
	for _, p := range peers {
		requireStatsKeys(t, "/stats per_peer "+p, statsField(t, "/stats per_peer", perPeer, p))
	}

	var agg RouterStatsResponse
	getJSON(t, routerSrv.URL+"/stats", &agg)
	if agg.Peers != 2 || len(agg.PerPeer) != 2 || len(agg.Unreachable) != 0 {
		t.Fatalf("aggregate shape = %d peers, %d replies, %v unreachable; want 2, 2, none",
			agg.Peers, len(agg.PerPeer), agg.Unreachable)
	}
	var sum uint64
	for _, p := range peers {
		st, ok := agg.PerPeer[p]
		if !ok {
			t.Fatalf("no per-peer stats for %s", p)
		}
		sum += st.Requests
	}
	if agg.Totals.Requests != sum || sum != n {
		t.Errorf("Totals.Requests = %d, per-peer sum = %d, want both %d",
			agg.Totals.Requests, sum, n)
	}

	// Kill one worker without giving the health loop a chance to evict
	// it: the aggregate must name it instead of pretending completeness.
	servers[1].Close()
	var partial RouterStatsResponse
	getJSON(t, routerSrv.URL+"/stats", &partial)
	if len(partial.Unreachable) != 1 || partial.Unreachable[0] != peers[1] {
		t.Errorf("Unreachable = %v, want [%s]", partial.Unreachable, peers[1])
	}
	if len(partial.PerPeer) != 1 {
		t.Errorf("%d per-peer replies after a death, want 1", len(partial.PerPeer))
	}
	if st, ok := partial.PerPeer[peers[0]]; !ok || st.Requests != agg.PerPeer[peers[0]].Requests {
		t.Errorf("surviving peer stats = %+v, want the same counters as before", st)
	}
}

// getJSON fetches a URL and decodes its JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, want 200", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

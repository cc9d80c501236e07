package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/mqopt"
)

// DefaultMaxBody bounds how many request-body bytes a node or router
// will read; anything larger is rejected with 413 before it can exhaust
// memory.
const DefaultMaxBody int64 = 8 << 20

// MaxTopologyDim bounds each side of a request's topology_dims: a 32×32
// cell grid is 8,192 qubits, seven times the paper's 12×12 device.
// Larger grids are rejected with 400 before any qubit is allocated.
const MaxTopologyDim = 32

// SolveRequest is the POST /solve schema, shared by every role:
// standalone nodes and workers decode it to solve, the router decodes
// it to learn the problem fingerprint before forwarding the raw bytes
// to the owner. Problem carries the same JSON instance format mqo-gen
// emits and mqo-solve reads; everything else is optional and mirrors
// the mqo-solve flags.
type SolveRequest struct {
	Problem json.RawMessage `json:"problem,omitempty"`
	// Workload is a join-graph workload (the text or JSON format mqo-gen
	// -workload emits); the MQO instance is derived from detected
	// sharing. Mutually exclusive with Problem. Workload-native solvers
	// (greedy-join) and portfolios including them require it.
	Workload string `json:"workload,omitempty"`
	// Solver is a registry name (qa, qa-series, portfolio, lin-mqo,
	// ...); empty selects the service default.
	Solver string `json:"solver,omitempty"`
	// Seed fixes the random stream (default 1).
	Seed *int64 `json:"seed,omitempty"`
	// Budget is a Go duration string ("2s", "20ms"): modeled device time
	// for annealer backends, wall-clock for classical ones.
	Budget string `json:"budget,omitempty"`
	// Runs caps annealing runs; Sweeps sets the surrogate's per-run
	// Metropolis sweeps.
	Runs   int `json:"runs,omitempty"`
	Sweeps int `json:"sweeps,omitempty"`
	// Embedding selects auto, clustered, triad, or greedy.
	Embedding string `json:"embedding,omitempty"`
	// Topology selects the annealer hardware graph for qa backends:
	// chimera (default), pegasus, or zephyr. TopologyDims optionally
	// gives the unit-cell grid as [rows, cols], each at most
	// MaxTopologyDim; a non-positive side selects the default 12.
	Topology     string `json:"topology,omitempty"`
	TopologyDims []int  `json:"topology_dims,omitempty"`
	// Members names portfolio members (solver "portfolio").
	Members []string `json:"members,omitempty"`
	// Target stops the solve early at this cost.
	Target *float64 `json:"target,omitempty"`
	// Cache "off" opts this request out of the shared compilation cache
	// (the CLI's -cache=off escape hatch; default on).
	Cache string `json:"cache,omitempty"`
	// Autotune selects the self-tuning portfolio: the node's learned
	// scheduler picks the member lineup, topology, and sweep budget for
	// this problem's shape class and records the outcome. Mutually
	// exclusive with a conflicting Solver; explicit Members still win
	// (they are the escape hatch).
	Autotune bool `json:"autotune,omitempty"`
}

// SolveResponse is the POST /solve reply body (and the "result" line of
// a streamed solve).
type SolveResponse struct {
	Solver     string          `json:"solver"`
	Cost       float64         `json:"cost"`
	Solution   []int           `json:"solution"`
	Incumbents []IncumbentJSON `json:"incumbents"`
	Windows    int             `json:"windows,omitempty"`
	Sweeps     int             `json:"sweeps,omitempty"`
	Winner     string          `json:"winner,omitempty"`
}

// IncumbentJSON is one anytime improvement on the wire.
type IncumbentJSON struct {
	ElapsedNS int64   `json:"elapsed_ns"`
	Cost      float64 `json:"cost"`
	Source    string  `json:"source,omitempty"`
}

// StreamLine is one NDJSON line of a streamed solve
// (POST /solve?stream=1): incumbent lines as the solve improves, then
// exactly one terminal line — result on success, error otherwise.
type StreamLine struct {
	Incumbent *IncumbentJSON `json:"incumbent,omitempty"`
	Result    *SolveResponse `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// StatsResponse is the GET /stats reply of a node.
type StatsResponse struct {
	Requests  uint64             `json:"requests"`
	Batches   uint64             `json:"batches"`
	Coalesced uint64             `json:"coalesced"`
	InFlight  uint64             `json:"in_flight"`
	Cache     CacheStatsJSON     `json:"cache"`
	Admission AdmissionStatsJSON `json:"admission"`
	// Autotune summarises the node's scheduler model; absent when the
	// node runs without one.
	Autotune *TuneStatsJSON `json:"autotune,omitempty"`
}

// TuneStatsJSON summarises a scheduler model on the wire. The
// fingerprint is hex so it reads the same as every other rendered
// fingerprint in the repo (JSON numbers would round 64-bit values).
type TuneStatsJSON struct {
	Arms         int    `json:"arms"`
	Classes      int    `json:"classes"`
	Observations int64  `json:"observations"`
	Fingerprint  string `json:"fingerprint"`
}

// tuneStatsJSON renders a model summary, or nil without a model.
func tuneStatsJSON(m *mqopt.TuneModel) *TuneStatsJSON {
	if m == nil {
		return nil
	}
	s := m.Stats()
	return &TuneStatsJSON{
		Arms:         s.Arms,
		Classes:      s.Classes,
		Observations: s.Observations,
		Fingerprint:  fmt.Sprintf("%016x", s.Fingerprint),
	}
}

// RouterStatsResponse is the GET /stats reply of a router: per-worker
// counters fetched live from every alive peer, plus their sums. Model
// fingerprints differ per worker (each learns its own shard of the
// stream), so autotune summaries stay per-peer and are not totalled.
type RouterStatsResponse struct {
	Peers       int                      `json:"peers"`
	Unreachable []string                 `json:"unreachable,omitempty"`
	Totals      StatsResponse            `json:"totals"`
	PerPeer     map[string]StatsResponse `json:"per_peer"`
}

// CacheStatsJSON mirrors mqopt.CacheStats on the wire.
type CacheStatsJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared"`
	Evictions uint64 `json:"evictions"`
	Entries   uint64 `json:"entries"`
}

// AdmissionStatsJSON mirrors AdmissionStats on the wire.
type AdmissionStatsJSON struct {
	Executing     int64  `json:"executing"`
	Queued        int64  `json:"queued"`
	Shed          uint64 `json:"shed"`
	MaxConcurrent int    `json:"max_concurrent"`
	MaxQueue      int    `json:"max_queue"`
}

// HTTPError is a decode/build failure with the status it should map to.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string { return e.Msg }

// httpErrorf builds an HTTPError.
func httpErrorf(status int, format string, args ...any) *HTTPError {
	return &HTTPError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// DecodeSolveRequest reads and strictly decodes a POST /solve body:
// the read is bounded by maxBytes (0 selects DefaultMaxBody; overruns
// map to 413), unknown fields are rejected (a typo'd "solvr" must not
// silently solve with the default backend), and trailing data after the
// JSON value is rejected. It returns the decoded request together with
// the raw body bytes so a router can forward exactly what it validated.
// Errors are *HTTPError carrying the status to respond with.
func DecodeSolveRequest(w http.ResponseWriter, r *http.Request, maxBytes int64) (*SolveRequest, []byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBody
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, nil, httpErrorf(http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		return nil, nil, httpErrorf(http.StatusBadRequest, "reading request: %v", err)
	}
	req, err := decodeSolveRequest(body)
	if err != nil {
		return nil, nil, err
	}
	return req, body, nil
}

// decodeSolveRequest strictly parses one JSON-encoded SolveRequest.
func decodeSolveRequest(body []byte) (*SolveRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "decoding request: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, httpErrorf(http.StatusBadRequest,
			"trailing data after the JSON request body")
	}
	return &req, nil
}

// BuildRequest translates the wire request into a service request. The
// returned Problem's Fingerprint is what the router hashes onto the
// ring. Errors are *HTTPError (all 400s: the request was readable but
// invalid).
func BuildRequest(req *SolveRequest) (mqopt.Request, error) {
	bad := func(format string, args ...any) (mqopt.Request, error) {
		return mqopt.Request{}, httpErrorf(http.StatusBadRequest, format, args...)
	}
	if len(req.Problem) != 0 && req.Workload != "" {
		return bad("problem and workload are mutually exclusive")
	}
	if len(req.Problem) == 0 && req.Workload == "" {
		return bad("request has no problem or workload")
	}
	var (
		p    *mqopt.Problem
		opts []mqopt.Option
	)
	if req.Workload != "" {
		wl, err := mqopt.ParseWorkload(strings.NewReader(req.Workload))
		if err != nil {
			return bad("reading workload: %v", err)
		}
		p = wl.Problem()
		opts = append(opts, mqopt.WithWorkload(wl))
	} else {
		var err error
		p, err = mqopt.ReadProblem(bytes.NewReader(req.Problem))
		if err != nil {
			return bad("reading problem: %v", err)
		}
	}
	if req.Seed != nil {
		opts = append(opts, mqopt.WithSeed(*req.Seed))
	}
	if req.Budget != "" {
		d, err := time.ParseDuration(req.Budget)
		if err != nil {
			return bad("bad budget: %v", err)
		}
		opts = append(opts, mqopt.WithBudget(d))
	}
	if req.Runs > 0 {
		opts = append(opts, mqopt.WithAnnealingRuns(req.Runs))
	}
	if req.Sweeps > 0 {
		opts = append(opts, mqopt.WithAnnealingSweeps(req.Sweeps))
	}
	if req.Embedding != "" {
		opts = append(opts, mqopt.WithEmbedding(mqopt.Embedding(req.Embedding)))
	}
	if req.Topology != "" || len(req.TopologyDims) > 0 {
		kind := req.Topology
		if kind == "" {
			kind = "chimera"
		}
		if len(req.TopologyDims) != 0 && len(req.TopologyDims) != 2 {
			return bad("topology_dims must be [rows, cols], got %v", req.TopologyDims)
		}
		for _, d := range req.TopologyDims {
			if d > MaxTopologyDim {
				return bad("topology_dims %v exceed %d cells per side", req.TopologyDims, MaxTopologyDim)
			}
		}
		// Check the kind eagerly so an unknown one is a 400, not a
		// failed solve.
		if kinds := mqopt.TopologyKinds(); !slices.Contains(kinds, kind) {
			return bad("unknown topology %q (registered: %v)", kind, kinds)
		}
		opts = append(opts, mqopt.WithTopology(kind, req.TopologyDims...))
	}
	if len(req.Members) > 0 {
		opts = append(opts, mqopt.WithPortfolio(req.Members...))
	}
	if req.Target != nil && !math.IsNaN(*req.Target) {
		opts = append(opts, mqopt.WithTargetCost(*req.Target))
	}
	switch req.Cache {
	case "", "on":
	case "off":
		opts = append(opts, mqopt.WithCache(nil))
	default:
		return bad("bad cache value %q (want on or off)", req.Cache)
	}
	solver := req.Solver
	if req.Autotune {
		if solver != "" && solver != "autotune" {
			return bad("autotune conflicts with solver %q", solver)
		}
		solver = "autotune"
	}
	return mqopt.Request{Problem: p, Solver: solver, Options: opts}, nil
}

// EncodeResponse renders a solve result in the wire format.
func EncodeResponse(res *mqopt.Result) SolveResponse {
	resp := SolveResponse{
		Solver:     res.Solver,
		Cost:       res.Cost,
		Solution:   res.Solution,
		Incumbents: make([]IncumbentJSON, len(res.Incumbents)),
	}
	for i, in := range res.Incumbents {
		resp.Incumbents[i] = IncumbentJSON{ElapsedNS: int64(in.Elapsed), Cost: in.Cost, Source: in.Source}
	}
	if d := res.Decomposition; d != nil {
		resp.Windows, resp.Sweeps = d.Windows, d.Sweeps
	}
	if pf := res.Portfolio; pf != nil {
		resp.Winner = pf.Winner
	}
	return resp
}

// CanonicalResponse re-encodes a /solve response body with every
// wall-clock incumbent timestamp zeroed. Solver choice, cost, solution,
// and the incumbent cost trajectory are deterministic and must be
// byte-identical between a routed and a standalone solve; elapsed_ns is
// measured time and is the one field exempt from that contract.
// Comparing CanonicalResponse outputs checks exactly the deterministic
// part.
func CanonicalResponse(raw []byte) ([]byte, error) {
	var resp SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("cluster: canonicalizing response: %w", err)
	}
	for i := range resp.Incumbents {
		resp.Incumbents[i].ElapsedNS = 0
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON writes v as indented JSON (the historical mqo-serve body
// format — indentation is part of the byte-identical contract between
// standalone and routed responses).
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

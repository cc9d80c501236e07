package cluster

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/mqopt"
)

// instanceJSON renders a small deterministic problem in the wire format.
func instanceJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	p := mqopt.Generate(seed, mqopt.Class{Queries: 6, PlansPerQuery: 2}, mqopt.GeneratorConfig{})
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatalf("writing instance: %v", err)
	}
	return buf.Bytes()
}

// decode runs DecodeSolveRequest over a synthetic POST.
func decode(t *testing.T, body string, maxBytes int64) (*SolveRequest, []byte, error) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body))
	return DecodeSolveRequest(httptest.NewRecorder(), r, maxBytes)
}

func wantStatus(t *testing.T, err error, status int) {
	t.Helper()
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v (%T), want *HTTPError", err, err)
	}
	if he.Status != status {
		t.Fatalf("status = %d (%s), want %d", he.Status, he.Msg, status)
	}
}

func TestDecodeRejectsUnknownField(t *testing.T) {
	// A typo'd field name must fail loudly, not silently solve with the
	// default backend.
	_, _, err := decode(t, `{"solvr": "qa"}`, 0)
	wantStatus(t, err, http.StatusBadRequest)
	if !strings.Contains(err.Error(), "solvr") {
		t.Errorf("error %q does not name the unknown field", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, _, err := decode(t, `{"solver": "qa"} {"solver": "greedy"}`, 0)
	wantStatus(t, err, http.StatusBadRequest)

	_, _, err = decode(t, `{"solver": "qa"} garbage`, 0)
	wantStatus(t, err, http.StatusBadRequest)
}

func TestDecodeRejectsOversizeBody(t *testing.T) {
	big := `{"workload": "` + strings.Repeat("x", 4096) + `"}`
	_, _, err := decode(t, big, 64)
	wantStatus(t, err, http.StatusRequestEntityTooLarge)
}

func TestDecodeReturnsRawBody(t *testing.T) {
	body := `{"solver": "greedy", "seed": 7}`
	req, raw, err := decode(t, body, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(raw) != body {
		t.Errorf("raw = %q, want the exact input bytes", raw)
	}
	if req.Solver != "greedy" || req.Seed == nil || *req.Seed != 7 {
		t.Errorf("decoded %+v, want solver greedy seed 7", req)
	}
}

func TestBuildRequestValidation(t *testing.T) {
	inst := string(instanceJSON(t, 1))
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both problem and workload", `{"problem": ` + inst + `, "workload": "q0: A B\n"}`},
		{"bad problem", `{"problem": {"costs": "nope"}}`},
		{"bad budget", `{"problem": ` + inst + `, "budget": "fast"}`},
		{"bad cache", `{"problem": ` + inst + `, "cache": "maybe"}`},
		{"bad topology", `{"problem": ` + inst + `, "topology": "hypercube"}`},
		{"bad topology dims", `{"problem": ` + inst + `, "topology_dims": [1, 2, 3]}`},
		{"huge topology dims", `{"problem": ` + inst + `, "topology_dims": [10000, 10000]}`},
		{"one side past the cap", `{"problem": ` + inst + `, "topology": "zephyr", "topology_dims": [4, 33]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _, err := decode(t, tc.body, 0)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			_, err = BuildRequest(req)
			wantStatus(t, err, http.StatusBadRequest)
		})
	}
}

func TestBuildRequestTopologyDimsWithinCap(t *testing.T) {
	// The cap admits MaxTopologyDim itself, and non-positive sides still
	// select the default grid.
	inst := string(instanceJSON(t, 1))
	for _, dims := range []string{"[32, 32]", "[0, -1]", "[12, 12]"} {
		body := `{"problem": ` + inst + `, "topology": "pegasus", "topology_dims": ` + dims + `}`
		req, _, err := decode(t, body, 0)
		if err != nil {
			t.Fatalf("decode %s: %v", dims, err)
		}
		if _, err := BuildRequest(req); err != nil {
			t.Errorf("topology_dims %s: %v", dims, err)
		}
	}
}

func TestBuildRequestFingerprintStable(t *testing.T) {
	// The router and a worker decode the same bytes independently; the
	// fingerprint they derive must agree or routing would be incoherent.
	body := `{"problem": ` + string(instanceJSON(t, 5)) + `, "solver": "greedy"}`
	req1, _, err := decode(t, body, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	req2, _, err := decode(t, body, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sr1, err := BuildRequest(req1)
	if err != nil {
		t.Fatalf("BuildRequest: %v", err)
	}
	sr2, err := BuildRequest(req2)
	if err != nil {
		t.Fatalf("BuildRequest: %v", err)
	}
	if sr1.Problem.Fingerprint() != sr2.Problem.Fingerprint() {
		t.Error("same bytes decoded to different fingerprints")
	}
}

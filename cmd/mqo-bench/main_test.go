package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/mqopt"
	"repro/mqopt/bench"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/mqo-bench -update
var update = flag.Bool("update", false, "rewrite testdata/golden files")

type golden struct {
	Description string `json:"description"`
	Output      string `json:"output"`
}

// TestGoldenFig7 pins the capacity-frontier experiment, the one fully
// deterministic mqo-bench output (pure embedding arithmetic, no solver
// clocks). The anytime and Table-1 experiments measure classical solvers
// against wall clocks and can never be golden.
func TestGoldenFig7(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), bench.DefaultConfig(), "fig7", &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join("testdata", "golden", "fig7.json")
	if *update {
		data, err := json.MarshalIndent(golden{
			Description: "mqo-bench -experiment fig7 (annealer capacity per plans-per-query)",
			Output:      buf.String(),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/mqo-bench -update`): %v", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if got := buf.String(); got != want.Output {
		t.Errorf("fig7 output diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want.Output)
	}
}

// TestExperimentNames: every name the -experiment help lists reaches
// an experiment (checked on a cancelled context, so none runs to the
// end), and the deleted throughput panel is an unknown experiment.
func TestExperimentNames(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range strings.Split(experiments, "|") {
		if err := run(ctx, bench.DefaultConfig(), name, io.Discard); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("-experiment %s: %v", name, err)
		}
	}
	err := run(context.Background(), bench.DefaultConfig(), "throughput", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("-experiment throughput: err = %v, want unknown experiment", err)
	}
}

// TestBenchPortfolioColumnRendered: the -portfolio wiring — Config
// .Portfolio through the bench facade — produces a rendered portfolio
// row in the Table-1 output.
func TestBenchPortfolioColumnRendered(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Instances = 1
	cfg.QARuns = 60
	cfg.Budget = 100 * time.Millisecond
	cfg.Portfolio = []string{"greedy", "climb"}
	rows, err := bench.RunTable1(context.Background(), cfg,
		[]mqopt.Class{{Queries: 8, PlansPerQuery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bench.RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "PORTFOLIO(GREEDY+CLIMB)") {
		t.Errorf("Table 1 output missing the portfolio row:\n%s", buf.String())
	}
}

// TestGoldenWorkload pins the workload panel: annealer, greedy-join,
// and their portfolio all run on modeled clocks over workload-derived
// instances, so the rendered table — costs, gaps, time-to-best, plan
// cache hit rate — is deterministic for a fixed seed at any
// parallelism.
func TestGoldenWorkload(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Instances = 2
	cfg.QARuns = 150
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, "workload", &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join("testdata", "golden", "workload.json")
	if *update {
		data, err := json.MarshalIndent(golden{
			Description: "mqo-bench -experiment workload -instances 2 -runs 150 (annealer vs greedy-join vs portfolio on workload-derived instances)",
			Output:      buf.String(),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/mqo-bench -update`): %v", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if got := buf.String(); got != want.Output {
		t.Errorf("workload output diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want.Output)
	}
}

// TestGoldenTopology pins the hardware-topology panel: QA runs on a
// modeled clock against exact optima, so the whole panel — footprints,
// chain lengths, broken-chain rates, time-to-best — is deterministic
// for a fixed seed at any parallelism.
func TestGoldenTopology(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Instances = 2
	cfg.QARuns = 150
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, "topology", &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join("testdata", "golden", "topology.json")
	if *update {
		data, err := json.MarshalIndent(golden{
			Description: "mqo-bench -experiment topology -instances 2 -runs 150 (Chimera vs Pegasus vs Zephyr)",
			Output:      buf.String(),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/mqo-bench -update`): %v", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if got := buf.String(); got != want.Output {
		t.Errorf("topology output diverges:\n--- got ---\n%s\n--- want ---\n%s", got, want.Output)
	}
}

package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mqo"
)

func topologyTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Instances = 2
	cfg.QARuns = 60
	return cfg
}

// TestRunTopologyPanel: three rows in kind order, the denser kinds use
// fewer qubits than Chimera's TRIAD, and every solve lands on a valid
// scaled cost.
func TestRunTopologyPanel(t *testing.T) {
	rows, err := topologyTestConfig().RunTopology(context.Background(), mqo.Class{Queries: 8, PlansPerQuery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TopologyKinds) {
		t.Fatalf("got %d rows, want %d", len(rows), len(TopologyKinds))
	}
	for i, r := range rows {
		if r.Kind != TopologyKinds[i] {
			t.Fatalf("row %d kind = %q, want %q", i, r.Kind, TopologyKinds[i])
		}
		if r.QubitsUsed <= 0 || r.MaxChainLength <= 0 || r.TimeToBest <= 0 {
			t.Fatalf("row %+v has empty metrics", r)
		}
		if r.FinalScaledCost < 0 {
			t.Fatalf("%s: scaled cost %v below optimum", r.Kind, r.FinalScaledCost)
		}
	}
	chimera := rows[0]
	for _, r := range rows[1:] {
		if r.QubitsUsed >= chimera.QubitsUsed {
			t.Fatalf("%s uses %d qubits, not below chimera's %d", r.Kind, r.QubitsUsed, chimera.QubitsUsed)
		}
		if r.MaxDegree <= chimera.MaxDegree {
			t.Fatalf("%s degree %d not above chimera's", r.Kind, r.MaxDegree)
		}
	}
}

// TestRunTopologyDeterministicAcrossParallelism: the panel is part of
// the repo-wide determinism contract — neither the worker count nor
// turning the compile cache off (mqo-bench -cache=off) changes it.
func TestRunTopologyDeterministicAcrossParallelism(t *testing.T) {
	class := mqo.Class{Queries: 6, PlansPerQuery: 2}
	seq := topologyTestConfig()
	seq.Parallelism = 1
	par := topologyTestConfig()
	par.Parallelism = 4
	par.DisableCache = true
	a, err := seq.RunTopology(context.Background(), class)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.RunTopology(context.Background(), class)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallelism changed the topology panel:\n%+v\n%+v", a, b)
	}
}

package embedding

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// completeGraphOK verifies e is a valid K_n embedding: path chains over
// working couplers and every variable pair adjacent.
func completeGraphOK(t *testing.T, e *Embedding, n int) {
	t.Helper()
	if e.NumVariables() != n {
		t.Fatalf("embedded %d variables, want %d", e.NumVariables(), n)
	}
	for v, ch := range e.Chains {
		for i := 0; i+1 < len(ch); i++ {
			if !e.Graph.HasCoupler(ch[i], ch[i+1]) {
				t.Fatalf("chain %d breaks between %d and %d", v, ch[i], ch[i+1])
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !e.CanCouple(u, v) {
				t.Fatalf("variables %d and %d have no shared coupler", u, v)
			}
		}
	}
}

// greedySizes is the per-kind envelope the greedy embedder is expected
// to handle on a 12×12 grid — roughly proportional to the topology's
// degree bound. Beyond it, PatternAuto falls back to TRIAD, which stays
// valid on the denser kinds because their coupler sets contain
// Chimera's.
var greedySizes = map[string][]int{
	"chimera": {1, 2, 5, 8, 12},
	"pegasus": {1, 2, 5, 12, 16},
	"zephyr":  {1, 2, 5, 16, 20},
}

func TestGreedyEmbedsCompleteGraphs(t *testing.T) {
	for kind, sizes := range greedySizes {
		g, err := topology.New(kind, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			emb, err := Greedy(g, n)
			if err != nil {
				t.Fatalf("%s: Greedy K_%d: %v", kind, n, err)
			}
			completeGraphOK(t, emb, n)
		}
	}
}

// TestGreedyExploitsDensity is the point of the denser topologies: for
// the same K_n, the Pegasus and Zephyr embeddings must consume fewer
// qubits than the Chimera TRIAD pattern needs.
func TestGreedyExploitsDensity(t *testing.T) {
	const n = 16
	triad, err := Triad(topology.Chimera(12, 12).(topology.CellGrid), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"pegasus", "zephyr"} {
		g, _ := topology.New(kind, 12, 12)
		emb, err := Greedy(g, n)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if emb.NumQubits() >= triad.NumQubits() {
			t.Fatalf("%s greedy K_%d uses %d qubits, not below TRIAD's %d",
				kind, n, emb.NumQubits(), triad.NumQubits())
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g1, _ := topology.New("pegasus", 8, 8)
	g2, _ := topology.New("pegasus", 8, 8)
	a, err := Greedy(g1, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy(g2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Chains, b.Chains) {
		t.Fatal("two Greedy runs on identical graphs produced different chains")
	}
}

func TestGreedyRoutesAroundFaults(t *testing.T) {
	g := topology.NewZephyr(8, 8)
	topology.BreakRandomQubits(g, 40, 9)
	emb, err := Greedy(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	completeGraphOK(t, emb, 12)
	for _, ch := range emb.Chains {
		for _, q := range ch {
			if !g.Working(q) {
				t.Fatalf("chain uses broken qubit %d", q)
			}
		}
	}
}

func TestGreedyRejectsImpossible(t *testing.T) {
	if _, err := Greedy(topology.Chimera(1, 1), 0); err == nil {
		t.Fatal("n=0 did not error")
	}
	// A single cell cannot host K_9: only 8 qubits exist.
	_, err := Greedy(topology.Chimera(1, 1), 9)
	if !errors.Is(err, ErrGraphTooSmall) {
		t.Fatalf("overfull graph error = %v, want ErrGraphTooSmall", err)
	}
}

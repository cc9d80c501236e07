package proptest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/topology"
)

// embeddingIterations is smaller than the energy properties' budget:
// each iteration embeds a full instance on a hardware graph. The budget
// is split across the three topology kinds.
const embeddingIterations = 20

// topologiesUnderTest returns one paper-scale instance of every
// built-in topology kind. Fresh graphs per call: the properties must
// hold on each kind, not just the Chimera the paper targets.
func topologiesUnderTest(t *testing.T) []topology.Graph {
	t.Helper()
	out := []topology.Graph{topology.DWave2X(0, 0)}
	for _, kind := range []string{"pegasus", "zephyr"} {
		g, err := topology.New(kind, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// randomEmbeddableCase draws an instance guaranteed to fit the annealer
// and maps it physically with a randomly chosen pattern valid for the
// graph's kind.
func randomEmbeddableCase(t *testing.T, rng *rand.Rand, g topology.Graph) (*logical.Mapping, *embedding.Embedding, *embedding.Physical) {
	t.Helper()
	pattern := core.PatternAuto
	plans := 2 + rng.Intn(2)
	maxQueries := 16
	switch rng.Intn(3) {
	case 1:
		// TRIAD embeds n variables in chains of length ⌈n/4⌉+1, which
		// caps a 12×12-cell graph at 48 variables; stay below it when
		// forcing TRIAD, and further below on faulty graphs, where
		// broken chains force the pattern to grow. Valid on every
		// kind: Pegasus/Zephyr contain Chimera's couplers.
		pattern = core.PatternTriad
		maxQueries = 44 / plans
		if g.NumWorkingQubits() < g.NumQubits() {
			maxQueries = 28 / plans
		}
	case 2:
		// The greedy path embedder handles complete graphs up to
		// roughly the degree bound, and fault maps shrink the envelope
		// further; stay conservatively inside it per kind.
		pattern = core.PatternGreedy
		plans = 2
		switch g.Kind() {
		case "pegasus":
			maxQueries = 6
		case "zephyr":
			maxQueries = 8
		default:
			maxQueries = 4
		}
	}
	class := mqo.Class{Queries: 4 + rng.Intn(maxQueries-3), PlansPerQuery: plans}
	p, err := core.GenerateEmbeddable(rng, g, class, mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatalf("%s: generating embeddable %v: %v", g.Kind(), class, err)
	}
	mapping := logical.Map(p)
	emb, _, err := core.EmbedProblem(g, p, mapping, pattern)
	if err != nil {
		t.Fatalf("%s: embedding (%q): %v", g.Kind(), pattern, err)
	}
	phys, err := embedding.PhysicalMap(emb, mapping.QUBO, embedding.DefaultEpsilon)
	if err != nil {
		t.Fatalf("%s: physical map: %v", g.Kind(), err)
	}
	return mapping, emb, phys
}

// TestPropChainsConnectedWithUniformCouplings is the embedding
// invariant on EVERY topology kind: each logical variable's chain is a
// connected path of working, exclusively-owned qubits joined by working
// couplers, and the ferromagnetic terms along it are uniform — each
// consecutive pair carries exactly −2·wB for the chain's single
// strength wB > 0, while non-consecutive pairs within a chain carry
// nothing.
func TestPropChainsConnectedWithUniformCouplings(t *testing.T) {
	for _, g := range topologiesUnderTest(t) {
		for iter := 0; iter < embeddingIterations; iter++ {
			rng := rand.New(rand.NewSource(int64(iter)))
			_, emb, phys := randomEmbeddableCase(t, rng, g)
			owner := map[int]int{} // hardware qubit -> variable
			for v, chain := range emb.Chains {
				if len(chain) == 0 {
					t.Fatalf("%s iter %d: variable %d has an empty chain", g.Kind(), iter, v)
				}
				for _, q := range chain {
					if !g.Working(q) {
						t.Fatalf("%s iter %d: chain of %d uses broken qubit %d", g.Kind(), iter, v, q)
					}
					if prev, dup := owner[q]; dup {
						t.Fatalf("%s iter %d: qubit %d owned by variables %d and %d", g.Kind(), iter, q, prev, v)
					}
					owner[q] = v
					if emb.VariableOf(q) != v {
						t.Fatalf("%s iter %d: reverse index disagrees for qubit %d", g.Kind(), iter, q)
					}
				}
				// Connectivity: consecutive chain qubits joined by a
				// working coupler of THIS topology.
				for i := 0; i+1 < len(chain); i++ {
					if !g.HasCoupler(chain[i], chain[i+1]) {
						t.Fatalf("%s iter %d: chain of %d breaks between qubits %d and %d",
							g.Kind(), iter, v, chain[i], chain[i+1])
					}
				}
				// Uniform intra-chain couplings at −2·wB.
				wB := phys.ChainStrength[v]
				if !(wB > 0) || math.IsInf(wB, 0) || math.IsNaN(wB) {
					t.Fatalf("%s iter %d: chain strength of %d is %v", g.Kind(), iter, v, wB)
				}
				lo, hi := phys.ChainOf(v)
				if hi-lo != len(chain) {
					t.Fatalf("%s iter %d: variable %d has %d compact indices for a chain of %d qubits",
						g.Kind(), iter, v, hi-lo, len(chain))
				}
				for i := lo; i < hi; i++ {
					for j := i + 1; j < hi; j++ {
						got := phys.QUBO.Quadratic(i, j)
						if j == i+1 {
							if math.Abs(got-(-2*wB)) > tol {
								t.Fatalf("%s iter %d: intra-chain coupling (%d,%d) of variable %d = %v, want %v",
									g.Kind(), iter, i, j, v, got, -2*wB)
							}
						} else if got != 0 {
							t.Fatalf("%s iter %d: non-consecutive chain pair (%d,%d) of variable %d carries %v",
								g.Kind(), iter, i, j, v, got)
						}
					}
				}
			}
		}
	}
}

// TestPropEmbedUnembedRoundTrip on every topology kind: expanding a
// logical assignment to a chain-consistent physical one and reading it
// back is the identity, the expansion breaks no chains, and the
// physical energy of the expansion equals the logical energy (the
// defining property of the physical mapping, independent of which graph
// hosts the chains).
func TestPropEmbedUnembedRoundTrip(t *testing.T) {
	for _, g := range topologiesUnderTest(t) {
		for iter := 0; iter < embeddingIterations; iter++ {
			rng := rand.New(rand.NewSource(int64(iter)))
			mapping, _, phys := randomEmbeddableCase(t, rng, g)
			logicalBits := RandomAssignment(rng, mapping.QUBO.N())
			physBits := phys.Embed(logicalBits)
			if n := phys.BrokenChains(physBits); n != 0 {
				t.Fatalf("%s iter %d: Embed produced %d broken chains", g.Kind(), iter, n)
			}
			if got := phys.Unembed(physBits); !reflect.DeepEqual(got, logicalBits) {
				t.Fatalf("%s iter %d: Unembed(Embed(x)) != x", g.Kind(), iter)
			}
			eLogical := mapping.QUBO.Energy(logicalBits)
			ePhysical := phys.QUBO.Energy(physBits)
			if math.Abs(eLogical-ePhysical) > tol*math.Max(1, math.Abs(eLogical)) {
				t.Fatalf("%s iter %d: physical energy %v != logical energy %v on a chain-consistent state",
					g.Kind(), iter, ePhysical, eLogical)
			}
		}
	}
}

// TestPropFaultyTopologiesRouteAroundBrokenQubits: on every kind, a
// deterministic fault map never leaks a broken qubit or coupler into an
// embedding, and the energy-preservation property survives the faults.
func TestPropFaultyTopologiesRouteAroundBrokenQubits(t *testing.T) {
	for _, kind := range []string{"chimera", "pegasus", "zephyr"} {
		for iter := 0; iter < embeddingIterations/2; iter++ {
			g, err := topology.New(kind, 12, 12)
			if err != nil {
				t.Fatal(err)
			}
			topology.BreakRandomQubits(g, 55, int64(iter))
			rng := rand.New(rand.NewSource(int64(100 + iter)))
			mapping, emb, phys := randomEmbeddableCase(t, rng, g)
			for v, chain := range emb.Chains {
				for _, q := range chain {
					if !g.Working(q) {
						t.Fatalf("%s iter %d: variable %d uses broken qubit %d", kind, iter, v, q)
					}
				}
			}
			logicalBits := RandomAssignment(rng, mapping.QUBO.N())
			physBits := phys.Embed(logicalBits)
			eLogical := mapping.QUBO.Energy(logicalBits)
			ePhysical := phys.QUBO.Energy(physBits)
			if math.Abs(eLogical-ePhysical) > tol*math.Max(1, math.Abs(eLogical)) {
				t.Fatalf("%s iter %d: faulty-graph energy mismatch: %v != %v", kind, iter, ePhysical, eLogical)
			}
		}
	}
}

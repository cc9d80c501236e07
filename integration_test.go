package repro

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/solvers"
	"repro/internal/trace"
)

// TestEndToEndAllSolversAgreeOnOptimum runs every solver in the repository
// (quantum pipeline, both branch-and-bounds, GA, hill climbing) on the
// same instance and checks they converge on the same optimal cost
// computed by the exact DP reference.
func TestEndToEndAllSolversAgreeOnOptimum(t *testing.T) {
	g := chimera.DWave2X(0, 0)
	rng := rand.New(rand.NewSource(42))
	p, err := core.GenerateEmbeddable(rng, g, mqo.Class{Queries: 24, PlansPerQuery: 3},
		mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := p.Optimum()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, cost float64, tolerance float64) {
		t.Helper()
		if cost < want-1e-9 {
			t.Errorf("%s: cost %v BELOW the proven optimum %v — cost accounting broken", name, cost, want)
		}
		if cost > want*(1+tolerance)+1e-9 {
			t.Errorf("%s: cost %v exceeds optimum %v by more than %.0f%%", name, cost, want, tolerance*100)
		}
	}

	// Quantum pipeline.
	res, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 300, Graph: g}, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	check("QA", res.Cost, 0)

	// LIN-MQO must hit the optimum exactly. LIN-QUB works on the QUBO
	// reformulation whose search space admits invalid selections — the
	// paper observes the same orders-of-magnitude disadvantage — so it
	// only gets a quality tolerance here.
	{
		var tr trace.Trace
		sol := (&solvers.BranchAndBound{}).Solve(context.Background(), p, 10*time.Second, rand.New(rand.NewSource(1)), &tr)
		cost, err := p.Cost(sol)
		if err != nil {
			t.Fatal(err)
		}
		check("LIN-MQO", cost, 0)
	}
	{
		var tr trace.Trace
		sol := solvers.QUBOBranchAndBound{}.Solve(context.Background(), p, 3*time.Second, rand.New(rand.NewSource(1)), &tr)
		cost, err := p.Cost(sol)
		if err != nil {
			t.Fatal(err)
		}
		check("LIN-QUB", cost, 0.25)
	}

	// Heuristics get a small tolerance.
	for _, s := range []solvers.Solver{solvers.NewGenetic(50), solvers.HillClimb{}} {
		var tr trace.Trace
		sol := s.Solve(context.Background(), p, 300*time.Millisecond, rand.New(rand.NewSource(2)), &tr)
		cost, err := p.Cost(sol)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		check(s.Name(), cost, 0.10)
	}
}

// TestEndToEndPhysicalEnergyAccounting verifies that the full mapping
// chain (logical → embedding → physical → Ising) preserves energies, so
// the annealer optimizes exactly the function the MQO semantics define.
func TestEndToEndPhysicalEnergyAccounting(t *testing.T) {
	g := chimera.DWave2X(0, 0)
	rng := rand.New(rand.NewSource(7))
	p, err := core.GenerateEmbeddable(rng, g, mqo.Class{Queries: 12, PlansPerQuery: 4},
		mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapping := logical.Map(p)
	emb, fallback, err := core.EmbedProblem(g, p, mapping, core.PatternAuto)
	if err != nil {
		t.Fatal(err)
	}
	if fallback {
		t.Fatal("embeddable instance used TRIAD fallback")
	}
	phys, err := embedding.PhysicalMap(emb, mapping.QUBO, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	isingProblem := ising.FromQUBO(phys.QUBO)
	compiled := anneal.Compile(isingProblem)

	for trial := 0; trial < 20; trial++ {
		sol := p.RandomSolution(rng)
		cost, err := p.Cost(sol)
		if err != nil {
			t.Fatal(err)
		}
		logicalBits := mapping.Encode(sol)
		physBits := phys.Embed(logicalBits)
		words := make([]uint64, anneal.WordsFor(compiled.N))
		anneal.PackSpins(ising.BitsToSpins(physBits), words)
		// Program energy == physical QUBO energy == logical energy, and
		// logical energy + |Q|·wL == MQO cost for valid solutions.
		e := compiled.PackedEnergy(words)
		if got := mapping.CostFromEnergy(e); math.Abs(got-cost) > 1e-6 {
			t.Fatalf("trial %d: Ising energy decodes to cost %v, want %v", trial, got, cost)
		}
	}
}

// TestEndToEndFaultyHardware runs the pipeline on a graph with the paper's
// fault count and verifies embeddings avoid broken qubits.
func TestEndToEndFaultyHardware(t *testing.T) {
	g := chimera.DWave2X(chimera.PaperBrokenQubits, 3)
	rng := rand.New(rand.NewSource(11))
	p, err := core.GenerateEmbeddable(rng, g, mqo.Class{Queries: 90, PlansPerQuery: 5},
		mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 100, Graph: g}, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := p.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < want-1e-9 {
		t.Fatalf("cost %v below optimum %v", res.Cost, want)
	}
	if gap := (res.Cost - want) / want; gap > 0.02 {
		t.Errorf("faulty-hardware QA gap %.2f%% exceeds 2%%", gap*100)
	}
}

// TestAblationPostprocess verifies the post-processing substitution is
// doing what DESIGN.md claims: raw surrogate read-outs are measurably
// worse than post-processed ones.
func TestAblationPostprocess(t *testing.T) {
	g := chimera.DWave2X(0, 0)
	rng := rand.New(rand.NewSource(13))
	p, err := core.GenerateEmbeddable(rng, g, mqo.Class{Queries: 108, PlansPerQuery: 5},
		mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	with, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 60, Graph: g}, 1)
	if err != nil {
		t.Fatal(err)
	}
	without, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 60, Graph: g, DisablePostprocess: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost > without.Cost+1e-9 {
		t.Errorf("post-processing made results worse: %v vs %v", with.Cost, without.Cost)
	}
	if with.Cost == without.Cost {
		t.Log("post-processing made no difference on this seed (acceptable but unusual)")
	}
}

// TestAblationUniformChainStrength checks the uniform-strength variant
// still yields correct (if potentially weaker) results.
func TestAblationUniformChainStrength(t *testing.T) {
	p := mqo.MustNew(
		[][]int{{0, 1}, {2, 3}},
		[]float64{2, 4, 3, 1},
		[]mqo.Saving{{P1: 1, P2: 2, Value: 5}},
	)
	res, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 100, UniformChainStrength: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Errorf("uniform chain strength: cost %v, want 2", res.Cost)
	}
}

// TestAblationGaugesOff checks the identity-gauge path.
func TestAblationGaugesOff(t *testing.T) {
	p := mqo.MustNew(
		[][]int{{0, 1}, {2, 3}},
		[]float64{2, 4, 3, 1},
		[]mqo.Saving{{P1: 1, P2: 2, Value: 5}},
	)
	res, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 100, DisableGauges: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Errorf("gauges off: cost %v, want 2", res.Cost)
	}
}

// TestBranchAndBoundPolishAblation verifies both search configurations
// reach the optimum on a mid-size instance, polish just gets there sooner.
func TestBranchAndBoundPolishAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := mqo.Generate(rng, mqo.Class{Queries: 14, PlansPerQuery: 3}, mqo.DefaultGeneratorConfig())
	_, want, err := p.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		s := &solvers.BranchAndBound{DisablePolish: disable}
		var tr trace.Trace
		sol := s.Solve(context.Background(), p, 5*time.Second, rand.New(rand.NewSource(1)), &tr)
		cost, err := p.Cost(sol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cost-want) > 1e-9 {
			t.Errorf("polish=%v: cost %v, want %v", !disable, cost, want)
		}
	}
}

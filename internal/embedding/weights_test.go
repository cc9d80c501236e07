package embedding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chimera"
	"repro/internal/qubo"
)

func randomLogical(rng *rand.Rand, n int, density float64) *qubo.Problem {
	q := qubo.New(n)
	q.Offset = rng.NormFloat64()
	for i := 0; i < n; i++ {
		q.AddLinear(i, rng.NormFloat64()*2)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				q.AddQuadratic(i, j, rng.NormFloat64()*2)
			}
		}
	}
	return q
}

func mustTriadPhysical(t *testing.T, rng *rand.Rand, n int, density float64) *Physical {
	t.Helper()
	g := chimera.NewGraph(3, 3)
	e, err := Triad(g, n)
	if err != nil {
		t.Fatal(err)
	}
	logical := randomLogical(rng, n, density)
	p, err := PhysicalMap(e, logical, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPhysicalEnergyMatchesLogicalForConsistentAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		p := mustTriadPhysical(t, rng, n, 0.7)
		lx := make([]bool, n)
		for i := range lx {
			lx[i] = rng.Intn(2) == 1
		}
		px := p.Embed(lx)
		if got, want := p.QUBO.Energy(px), p.Logical.Energy(lx); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: physical energy %v != logical %v", trial, got, want)
		}
	}
}

// TestPhysicalMinimumDecodesToLogicalMinimum is the end-to-end correctness
// test of Section 5's construction: the exact physical minimizer must be
// chain-consistent and unembed to the exact logical minimizer.
func TestPhysicalMinimumDecodesToLogicalMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3) // chains of length ≤ 2 on 3x3: ≤ 4 vars keeps 2^N small
		p := mustTriadPhysical(t, rng, n, 0.8)
		if p.QUBO.N() > 22 {
			continue
		}
		px, pe, err := p.QUBO.SolveExhaustive(0)
		if err != nil {
			t.Fatal(err)
		}
		if broken := p.BrokenChains(px); broken != 0 {
			t.Errorf("trial %d: physical minimum has %d broken chains", trial, broken)
		}
		lx, le, err := p.Logical.SolveExhaustive(0)
		if err != nil {
			t.Fatal(err)
		}
		_ = lx
		got := p.Unembed(px)
		if e := p.Logical.Energy(got); math.Abs(e-le) > 1e-9 {
			t.Errorf("trial %d: unembedded minimum has logical energy %v, want %v", trial, e, le)
		}
		if math.Abs(pe-le) > 1e-9 {
			t.Errorf("trial %d: physical minimum energy %v != logical %v", trial, pe, le)
		}
	}
}

func TestChainStrengthPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := mustTriadPhysical(t, rng, 6, 0.9)
	for v, w := range p.ChainStrength {
		if w < p.Epsilon {
			t.Errorf("chain %d strength %v below epsilon %v", v, w, p.Epsilon)
		}
	}
}

func TestChainStrengthScalesWithWeights(t *testing.T) {
	// Chains coupled to heavier logical weights need stronger bonds.
	g := chimera.NewGraph(3, 3)
	e, err := Triad(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed-sign couplings keep both of Choi's directional bounds
	// positive (a chain with only positive couplings can always be set to
	// all-zero for free, making U legitimately zero).
	small := qubo.New(3)
	small.AddQuadratic(0, 1, 1)
	small.AddQuadratic(0, 2, -1)
	big := qubo.New(3)
	big.AddQuadratic(0, 1, 100)
	big.AddQuadratic(0, 2, -100)
	ps, err := PhysicalMap(e, small, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PhysicalMap(e, big, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	if pb.ChainStrength[0] <= ps.ChainStrength[0] {
		t.Errorf("chain strength did not grow with weights: %v vs %v",
			pb.ChainStrength[0], ps.ChainStrength[0])
	}
}

func TestUnembedMajorityVote(t *testing.T) {
	g := chimera.NewGraph(3, 3)
	e, err := Triad(g, 8) // chains of length 3
	if err != nil {
		t.Fatal(err)
	}
	logical := qubo.New(8)
	logical.AddLinear(0, -1)
	p, err := PhysicalMap(e, logical, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]bool, p.QUBO.N())
	// Chain 0 has 3 qubits: set two of three.
	lo, hi := p.ChainOf(0)
	if hi-lo != 3 {
		t.Fatalf("chain 0 length = %d, want 3", hi-lo)
	}
	x[lo] = true
	x[lo+1] = true
	lx := p.Unembed(x)
	if !lx[0] {
		t.Error("majority 2/3 true unembedded to false")
	}
	if p.BrokenChains(x) != 1 {
		t.Errorf("BrokenChains = %d, want 1", p.BrokenChains(x))
	}
	x[lo+2] = true
	if p.BrokenChains(x) != 0 {
		t.Errorf("BrokenChains after repair = %d, want 0", p.BrokenChains(x))
	}
}

func TestUnembedTieBreaksToFirstQubit(t *testing.T) {
	g := chimera.NewGraph(3, 3)
	e, err := Triad(g, 5) // chains of length 3 for m=2... verify even-length via pair chains
	if err != nil {
		t.Fatal(err)
	}
	_ = e
	// Build a direct 2-qubit chain embedding to get an even split.
	g2 := chimera.NewGraph(1, 1)
	e2, err := NewEmbedding(g2, []Chain{{0, 4}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	logical := qubo.New(2)
	logical.AddQuadratic(0, 1, 1)
	p, err := PhysicalMap(e2, logical, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]bool, 4)
	x[0] = true // chain 0: qubits (0,4) -> first true, second false
	lx := p.Unembed(x)
	if !lx[0] {
		t.Error("tie should resolve to first qubit's value (true)")
	}
}

func TestPhysicalMapRejectsUnrealizableCoupling(t *testing.T) {
	// Two chains in non-adjacent cells cannot host a coupling.
	g := chimera.NewGraph(1, 3)
	e, err := NewEmbedding(g, []Chain{{g.QubitAt(0, 0, 0)}, {g.QubitAt(0, 2, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	logical := qubo.New(2)
	logical.AddQuadratic(0, 1, 1)
	if _, err := PhysicalMap(e, logical, DefaultEpsilon); err == nil {
		t.Error("unrealizable coupling accepted")
	}
}

func TestPhysicalMapRejectsBadEpsilon(t *testing.T) {
	g := chimera.NewGraph(1, 1)
	e, err := NewEmbedding(g, []Chain{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PhysicalMap(e, qubo.New(1), 0); err == nil {
		t.Error("epsilon 0 accepted")
	}
}

func TestNewEmbeddingValidation(t *testing.T) {
	g := chimera.NewGraph(2, 2)
	cases := []struct {
		name   string
		chains []Chain
	}{
		{"empty chain", []Chain{{}}},
		{"out of range", []Chain{{-1}}},
		{"overlap", []Chain{{0, 4}, {4, 1}}},
		{"disconnected chain", []Chain{{0, 1}}}, // same colon: no coupler
	}
	for _, c := range cases {
		if _, err := NewEmbedding(g, c.chains); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	g.BreakQubit(0)
	if _, err := NewEmbedding(g, []Chain{{0}}); err == nil {
		t.Error("broken qubit accepted")
	}
}

func TestValidateDetectsMissingCoupler(t *testing.T) {
	g := chimera.NewGraph(1, 2)
	e, err := NewEmbedding(g, []Chain{
		{g.QubitAt(0, 0, 0)},
		{g.QubitAt(0, 0, 4)},
		{g.QubitAt(0, 1, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := qubo.New(3)
	ok.AddQuadratic(0, 1, 1) // intra-cell: fine
	if err := e.Validate(ok); err != nil {
		t.Errorf("valid coupling rejected: %v", err)
	}
	bad := qubo.New(3)
	bad.AddQuadratic(0, 2, 1) // left colon across cells horizontally: no coupler
	if err := e.Validate(bad); err == nil {
		t.Error("missing coupler not detected")
	}
	if _, err := PhysicalMap(e, bad, 0.25); err == nil {
		t.Error("PhysicalMap placed a coupling with no coupler")
	}
}

// TestValidateErrors: Validate, which re-checks an embedding against
// its own index instead of rebuilding it, and PhysicalMap, which checks
// only the chain count, each reject what they must.
func TestValidateErrors(t *testing.T) {
	g := chimera.NewGraph(1, 2)
	chains := []Chain{
		{g.QubitAt(0, 0, 0), g.QubitAt(0, 0, 4)},
		{g.QubitAt(0, 0, 5)},
	}
	e, err := NewEmbedding(g, chains)
	if err != nil {
		t.Fatal(err)
	}
	logical := qubo.New(2)
	logical.AddQuadratic(0, 1, 1)
	if err := e.Validate(logical); err != nil {
		t.Fatalf("valid embedding rejected: %v", err)
	}

	// A chain-count mismatch fails both.
	three := qubo.New(3)
	if err := e.Validate(three); err == nil {
		t.Error("Validate accepted 2 chains for 3 variables")
	}
	if _, err := PhysicalMap(e, three, 0.25); err == nil {
		t.Error("PhysicalMap accepted 2 chains for 3 variables")
	}

	// A chain changed after NewEmbedding no longer matches the index.
	chains[1][0] = g.QubitAt(0, 0, 6)
	if err := e.Validate(logical); err == nil {
		t.Error("Validate accepted a chain qubit the index does not give its variable")
	}
	chains[1][0] = g.QubitAt(0, 0, 5)

	// A chain through a qubit broken since it was built; with no
	// coupling to place, only the qubit itself is wrong.
	g.BreakQubit(g.QubitAt(0, 0, 5))
	if err := e.Validate(qubo.New(2)); err == nil {
		t.Error("Validate accepted a chain through a broken qubit")
	}
}

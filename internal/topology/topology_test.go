package topology

import (
	"strings"
	"testing"

	"repro/internal/chimera"
)

// builtins returns one small fault-free instance per registered kind.
func builtins(t *testing.T, rows, cols int) map[string]Graph {
	t.Helper()
	out := map[string]Graph{}
	for _, kind := range Kinds() {
		g, err := New(kind, rows, cols)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		out[kind] = g
	}
	return out
}

func TestRegistryKinds(t *testing.T) {
	kinds := Kinds()
	want := []string{"chimera", "pegasus", "zephyr"}
	for _, k := range want {
		found := false
		for _, have := range kinds {
			if have == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("kind %q missing from registry %v", k, kinds)
		}
	}
	if _, err := New("moebius", 4, 4); err == nil {
		t.Fatal("unknown kind did not error")
	} else if !strings.Contains(err.Error(), "chimera") {
		t.Fatalf("unknown-kind error does not enumerate the registry: %v", err)
	}
}

func TestNewDefaultsToPaperGrid(t *testing.T) {
	g, err := New(PegasusKind, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := g.Dims(); r != DefaultRows || c != DefaultCols {
		t.Fatalf("default dims = %dx%d, want %dx%d", r, c, DefaultRows, DefaultCols)
	}
	if g.NumQubits() != DefaultRows*DefaultCols*CellSize {
		t.Fatalf("NumQubits = %d", g.NumQubits())
	}
}

func TestKindAndDims(t *testing.T) {
	for kind, g := range builtins(t, 4, 5) {
		if g.Kind() != kind {
			t.Fatalf("Kind() = %q for registry entry %q", g.Kind(), kind)
		}
		if r, c := g.Dims(); r != 4 || c != 5 {
			t.Fatalf("%s: Dims = %dx%d, want 4x5", kind, r, c)
		}
		if g.NumQubits() != 4*5*CellSize {
			t.Fatalf("%s: NumQubits = %d", kind, g.NumQubits())
		}
		if g.NumWorkingQubits() != g.NumQubits() {
			t.Fatalf("%s: fault-free graph has broken qubits", kind)
		}
	}
}

// TestDegreeBound checks every qubit's ideal degree stays within the
// kind's bound and that interior qubits achieve it exactly — the
// connectivity jump (6 → 15 → 20) is the point of the denser kinds.
func TestDegreeBound(t *testing.T) {
	wantMax := map[string]int{
		chimera.Kind: chimera.MaxDegree,
		PegasusKind:  PegasusMaxDegree,
		ZephyrKind:   ZephyrMaxDegree,
	}
	for kind, g := range builtins(t, 6, 6) {
		if g.MaxDegree() != wantMax[kind] {
			t.Fatalf("%s: MaxDegree = %d, want %d", kind, g.MaxDegree(), wantMax[kind])
		}
		achieved := 0
		for q := 0; q < g.NumQubits(); q++ {
			d := len(g.Neighbors(q))
			if d > g.MaxDegree() {
				t.Fatalf("%s: qubit %d has degree %d > bound %d", kind, q, d, g.MaxDegree())
			}
			if d == g.MaxDegree() {
				achieved++
			}
		}
		if achieved == 0 {
			t.Fatalf("%s: no qubit achieves the documented max degree %d", kind, g.MaxDegree())
		}
	}
}

// TestAdjacencySymmetric: couplers are unordered pairs, so the
// neighbor relation must be symmetric and agree with HasCoupler.
func TestAdjacencySymmetric(t *testing.T) {
	for kind, g := range builtins(t, 5, 4) {
		for q := 0; q < g.NumQubits(); q++ {
			for _, o := range g.Neighbors(q) {
				if !g.HasCoupler(q, o) || !g.HasCoupler(o, q) {
					t.Fatalf("%s: HasCoupler disagrees with Neighbors for (%d,%d)", kind, q, o)
				}
				back := false
				for _, b := range g.Neighbors(o) {
					if b == q {
						back = true
					}
				}
				if !back {
					t.Fatalf("%s: %d ∈ Neighbors(%d) but not vice versa", kind, o, q)
				}
			}
		}
	}
}

// TestDenserKindsContainChimera: on the same cell grid, every Chimera
// coupler exists in Pegasus and Zephyr — the property that keeps
// TRIAD/clustered chains valid across kinds.
func TestDenserKindsContainChimera(t *testing.T) {
	base := chimera.NewGraph(5, 5)
	for _, kind := range []string{PegasusKind, ZephyrKind} {
		g, err := New(kind, 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < base.NumQubits(); q++ {
			for _, o := range base.Neighbors(q) {
				if !g.HasCoupler(q, o) {
					t.Fatalf("%s lacks chimera coupler (%d,%d)", kind, q, o)
				}
			}
		}
	}
}

func TestCellCoordinates(t *testing.T) {
	for kind, g := range builtins(t, 3, 4) {
		cg, ok := g.(CellGrid)
		if !ok {
			t.Fatalf("%s does not implement CellGrid", kind)
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 4; c++ {
				for k := 0; k < CellSize; k++ {
					q := cg.QubitAt(r, c, k)
					rr, cc := cg.Cell(q)
					if rr != r || cc != c {
						t.Fatalf("%s: Cell(QubitAt(%d,%d,%d)) = (%d,%d)", kind, r, c, k, rr, cc)
					}
				}
			}
		}
	}
}

func TestFaultSemantics(t *testing.T) {
	for kind, g := range builtins(t, 4, 4) {
		cg := g.(CellGrid)
		q := cg.QubitAt(1, 1, 0)
		neigh := g.Neighbors(q)
		if len(neigh) == 0 {
			t.Fatalf("%s: interior qubit has no neighbors", kind)
		}
		couplers := g.NumCouplers()

		// Breaking one coupler removes exactly that edge.
		o := neigh[0]
		g.BreakCoupler(q, o)
		if g.HasCoupler(q, o) || g.HasCoupler(o, q) {
			t.Fatalf("%s: broken coupler still reported working", kind)
		}
		if got := g.NumCouplers(); got != couplers-1 {
			t.Fatalf("%s: NumCouplers = %d after breaking one coupler, want %d", kind, got, couplers-1)
		}

		// Breaking the qubit removes it and all incident couplers.
		g.BreakQubit(q)
		if g.Working(q) {
			t.Fatalf("%s: broken qubit still working", kind)
		}
		if g.Neighbors(q) != nil {
			t.Fatalf("%s: broken qubit still has neighbors", kind)
		}
		if g.NumWorkingQubits() != g.NumQubits()-1 {
			t.Fatalf("%s: NumWorkingQubits did not drop", kind)
		}
		for _, n := range neigh {
			if g.HasCoupler(q, n) {
				t.Fatalf("%s: coupler to broken qubit still reported", kind)
			}
		}
	}
}

func TestBreakCouplerPanicsWithoutCoupler(t *testing.T) {
	g := NewPegasus(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("BreakCoupler on a non-coupler did not panic")
		}
	}()
	g.BreakCoupler(0, g.NumQubits()-1)
}

func TestQubitAtPanicsOutOfRange(t *testing.T) {
	g := NewZephyr(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("QubitAt out of range did not panic")
		}
	}()
	g.QubitAt(2, 0, 0)
}

func TestBreakRandomQubitsDeterministic(t *testing.T) {
	faulty := func(seed int64) *Cellular {
		g := NewPegasus(6, 6)
		BreakRandomQubits(g, 17, seed)
		return g
	}
	a, b := faulty(42), faulty(42)
	for q := 0; q < a.NumQubits(); q++ {
		if a.Working(q) != b.Working(q) {
			t.Fatalf("same seed produced different fault maps at qubit %d", q)
		}
	}
	c := faulty(43)
	same := true
	for q := 0; q < a.NumQubits(); q++ {
		if a.Working(q) != c.Working(q) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault maps")
	}
	if a.NumWorkingQubits() != a.NumQubits()-17 {
		t.Fatalf("fault count = %d, want 17", a.NumQubits()-a.NumWorkingQubits())
	}
}

// TestBreakRandomQubitsMatchesDWave2X: the generic fault model is
// bit-compatible with the historical chimera.DWave2X stream, so moving
// callers onto it can never shift a golden trace.
func TestBreakRandomQubitsMatchesDWave2X(t *testing.T) {
	want := chimera.DWave2X(chimera.PaperBrokenQubits, 7)
	got := chimera.NewGraph(12, 12)
	BreakRandomQubits(got, chimera.PaperBrokenQubits, 7)
	for q := 0; q < want.NumQubits(); q++ {
		if want.Working(q) != got.Working(q) {
			t.Fatalf("fault maps diverge at qubit %d", q)
		}
	}
}

func TestBreakRandomQubitsPanicsOnOverflow(t *testing.T) {
	g := NewPegasus(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("breaking more qubits than exist did not panic")
		}
	}()
	BreakRandomQubits(g, g.NumQubits()+1, 1)
}

func TestRender(t *testing.T) {
	g := NewPegasus(DefaultRows, DefaultCols)
	BreakRandomQubits(g, 3, 5)
	out := g.Render()
	if !strings.HasPrefix(out, "Pegasus 12x12") {
		t.Fatalf("render header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "[7]") {
		t.Fatal("render does not show a degraded cell")
	}
	z := NewZephyr(2, 2)
	if !strings.HasPrefix(z.Render(), "Zephyr 2x2") {
		t.Fatalf("zephyr render header = %q", strings.SplitN(z.Render(), "\n", 2)[0])
	}
}

func TestDWave2XHelper(t *testing.T) {
	g := DWave2X(chimera.PaperBrokenQubits, 3)
	if g.Kind() != chimera.Kind {
		t.Fatalf("DWave2X kind = %q", g.Kind())
	}
	if g.NumWorkingQubits() != g.NumQubits()-chimera.PaperBrokenQubits {
		t.Fatal("DWave2X fault count wrong")
	}
	if c := Chimera(4, 4); c.NumQubits() != 4*4*CellSize {
		t.Fatal("Chimera constructor wrong size")
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register with empty kind did not panic")
		}
	}()
	Register("", nil)
}

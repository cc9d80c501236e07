package anneal

import (
	"testing"

	"repro/internal/ising"
	"repro/internal/qubo"
)

// SA must satisfy the warm-start contract.
var _ WarmSampler = (*SimulatedAnnealer)(nil)

func warmTestProgram(n int) *Compiled {
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, -1)
		if i+1 < n {
			q.AddQuadratic(i, i+1, 0.5)
		}
	}
	return Compile(ising.FromQUBO(q))
}

func TestSampleWarmIntoZeroSweepsReturnsInit(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		c := warmTestProgram(n)
		init := make([]uint64, WordsFor(n))
		RandomSpinsInto(NewRand(7), n, init)

		sa := &SimulatedAnnealer{Sweeps: 0, BetaStart: 0.1, BetaEnd: 8}
		var sc Scratch
		sa.SampleWarmInto(c, NewRand(1), &sc, init)
		for w, word := range sc.Words() {
			if word != init[w] {
				t.Fatalf("n=%d: zero-sweep warm read-out word %d = %x, want init %x", n, w, word, init[w])
			}
		}
	}
}

func TestSampleWarmIntoDeterministic(t *testing.T) {
	const n = 90
	c := warmTestProgram(n)
	init := make([]uint64, WordsFor(n))
	RandomSpinsInto(NewRand(3), n, init)
	sa := DefaultSA()

	run := func() []uint64 {
		var sc Scratch
		sa.SampleWarmInto(c, NewRand(42), &sc, init)
		out := make([]uint64, len(sc.Words()))
		copy(out, sc.Words())
		return out
	}
	a, b := run(), run()
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("warm read-out not deterministic at word %d: %x vs %x", w, a[w], b[w])
		}
	}
	// init must not be mutated.
	check := make([]uint64, WordsFor(n))
	RandomSpinsInto(NewRand(3), n, check)
	for w := range check {
		if init[w] != check[w] {
			t.Fatalf("SampleWarmInto mutated init at word %d", w)
		}
	}
}

func TestSampleWarmIntoScratchReuse(t *testing.T) {
	// A scratch that just ran a larger cold sample must produce the same
	// warm read-out as a fresh one: grow + markAllDirty must fully reset.
	big := warmTestProgram(200)
	small := warmTestProgram(40)
	init := make([]uint64, WordsFor(40))
	RandomSpinsInto(NewRand(5), 40, init)
	sa := DefaultSA()

	var fresh Scratch
	sa.SampleWarmInto(small, NewRand(9), &fresh, init)
	want := append([]uint64(nil), fresh.Words()...)

	var reused Scratch
	sa.SampleInto(big, NewRand(1), &reused, nil)
	sa.SampleWarmInto(small, NewRand(9), &reused, init)
	got := reused.Words()
	if len(got) != len(want) {
		t.Fatalf("read-out length %d, want %d", len(got), len(want))
	}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("reused scratch diverges at word %d: %x vs %x", w, got[w], want[w])
		}
	}
}

func TestSampleWarmIntoKeepsGroundState(t *testing.T) {
	// On a field-only problem the all-ones state (all bits clear: spin +1
	// everywhere, x=1) is the unique ground state; a warm run started
	// there must never end higher in energy than a cold run of the same
	// budget — the late-schedule β keeps the basin.
	const n = 64
	c := warmTestProgram(n)
	ground := make([]uint64, WordsFor(n))
	groundE := c.PackedEnergy(ground)

	sa := DefaultSA()
	var sc Scratch
	sa.SampleWarmInto(c, NewRand(11), &sc, ground)
	warmE := c.PackedEnergy(sc.Words())

	var cold Scratch
	sa.SampleInto(c, NewRand(11), &cold, nil)
	coldE := c.PackedEnergy(cold.Words())
	if warmE > coldE {
		t.Fatalf("warm run from the ground state ended at %v, above the cold run's %v (ground %v)",
			warmE, coldE, groundE)
	}
}

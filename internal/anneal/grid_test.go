package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ising"
	"repro/internal/topology"
)

// gridTerm is a field on spin i when i == j, else a coupling.
type gridTerm struct {
	i, j int
	w    float64
}

// gridCase is a program of n spins and its OnGrid verdict.
type gridCase struct {
	name string
	n    int
	w    []gridTerm
	want bool
}

// TestOnGrid pins Compile's OnGrid decision: every weight an integer
// multiple of one 2^-q, and 2·max_i(|h_i| + Σ_j |J_ij|)·2^q ≤ 2^51.
// The bound cases sit one grid step inside, on and one step outside
// 2^(50−q), as a field, as a row of couplings, and on a first row whose
// own weights allow a coarser grid than a later row sets, so a
// loosened bound, or a check that skips rows or does not recheck them
// at the final q, fails here.
func TestOnGrid(t *testing.T) {
	exp2 := func(e int) float64 { return math.Ldexp(1, e) }
	sub := math.Float64frombits(1) // 2^-1074, the smallest subnormal
	cases := []gridCase{
		{"empty", 0, nil, true},
		{"all zero", 3, []gridTerm{{0, 0, 0}, {0, 1, 0}, {1, 2, math.Copysign(0, -1)}}, true},
		{"dyadic", 3, []gridTerm{{0, 0, -1.5}, {1, 1, 0.25}, {0, 1, 3}, {1, 2, -0.125}, {0, 2, 1024}}, true},
		{"one weight of 0.1", 3, []gridTerm{{0, 0, 1}, {0, 1, 0.1}, {1, 2, 2}}, false},
		{"a field of 0.1", 2, []gridTerm{{1, 1, 0.1}, {0, 1, 1}}, false},
		{"NaN field", 2, []gridTerm{{0, 0, 1}, {1, 1, math.NaN()}}, false},
		{"NaN coupling", 2, []gridTerm{{0, 1, math.NaN()}}, false},
		{"+Inf field", 1, []gridTerm{{0, 0, math.Inf(1)}}, false},
		{"-Inf coupling", 2, []gridTerm{{0, 1, math.Inf(-1)}}, false},
		{"subnormals only", 2, []gridTerm{{0, 0, sub}, {0, 1, 3 * sub}}, true},
		{"a subnormal beside 1", 2, []gridTerm{{0, 0, sub}, {1, 1, 1}}, false},
		{"subnormal at the bound", 2, []gridTerm{{0, 0, exp2(-1024)}, {1, 1, sub}}, true},
		{"subnormal past the bound", 2, []gridTerm{{0, 0, exp2(-1023)}, {1, 1, sub}}, false},
		{"h = 2^53 with a unit coupling", 2, []gridTerm{{0, 0, exp2(53)}, {0, 1, 1}}, false},
	}
	for _, q := range []int{0, 3, 20} {
		lim, step := exp2(50-q), exp2(-q)
		for _, b := range []struct {
			name  string
			delta float64
			want  bool
		}{{"inside", -1, true}, {"on", 0, true}, {"outside", 1, false}} {
			m := lim + b.delta*step
			late := lim + 2*b.delta*step // a multiple of 2^(1−q)
			for _, c := range []struct {
				shape string
				w     []gridTerm
			}{
				{"field", []gridTerm{{0, 0, step}, {1, 1, -m}}},
				{"row", []gridTerm{{0, 0, -step}, {0, 1, lim / 2}, {0, 2, -(m - lim/2 - step)}}},
				{"q set late", []gridTerm{{0, 0, late}, {1, 1, step}}},
			} {
				cases = append(cases, gridCase{fmt.Sprintf("q = %d, %s %s the bound", q, c.shape, b.name), 3, c.w, b.want})
			}
		}
	}
	for _, tc := range cases {
		p := ising.New(tc.n)
		for _, w := range tc.w {
			if w.i == w.j {
				p.AddField(w.i, w.w)
			} else {
				p.AddCoupling(w.i, w.j, w.w)
			}
		}
		if got := Compile(p).OnGrid; got != tc.want {
			t.Errorf("%s: OnGrid = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// topoIsing draws a program over the 2×3 hardware graph of the given
// kind with a field on every qubit and, with probability 0.9, a
// coupling on every coupler, each weight drawn by w.
func topoIsing(t *testing.T, rng *rand.Rand, kind string, w func() float64) *ising.Problem {
	t.Helper()
	g, err := topology.New(kind, 2, 3)
	if err != nil {
		t.Fatalf("topology.New(%s): %v", kind, err)
	}
	p := ising.New(g.NumQubits())
	for q := 0; q < p.N(); q++ {
		p.AddField(q, w())
		for _, nb := range g.Neighbors(q) {
			if nb > q && rng.Float64() < 0.9 {
				p.AddCoupling(q, nb, w())
			}
		}
	}
	return p
}

// checkedRun is SampleInto (init == nil) or SampleWarmInto on sc, run
// one sweep at a time as anneal runs it. After every sweep each cached
// delta must equal PackedFlipDelta: every one on grid, and off grid
// every one whose dirty bit is clear. It returns how many of the
// checked deltas were ±0.
func checkedRun(t *testing.T, what string, sa *SimulatedAnnealer, c *Compiled, rng *Rand, sc *Scratch, gauge, init []uint64) (zeros int) {
	t.Helper()
	sc.grow(c.N)
	beta, ratio := sa.BetaStart, 1.0
	if init == nil {
		RandomSpinsInto(rng, c.N, sc.out)
		xorMask(sc.out, gauge)
		if sa.Sweeps > 1 {
			ratio = math.Pow(sa.BetaEnd/sa.BetaStart, 1/float64(sa.Sweeps-1))
		}
	} else {
		copy(sc.out, init)
		beta = math.Sqrt(sa.BetaStart * sa.BetaEnd)
		if sa.Sweeps > 1 {
			ratio = math.Pow(sa.BetaEnd/beta, 1/float64(sa.Sweeps-1))
		}
	}
	check := func(sweep int, frozen bool) {
		t.Helper()
		for i := 0; i < c.N; i++ {
			if !c.OnGrid && spinBit(sc.dirty, i) == 1 {
				continue
			}
			want := c.PackedFlipDelta(sc.out, i)
			if got := sc.delta[i]; got != want {
				t.Fatalf("%s: after sweep %d (frozen %v) spin %d caches delta %v, PackedFlipDelta is %v", what, sweep, frozen, i, got, want)
			}
			if want == 0 {
				zeros++
			}
		}
	}
	markAllDirty(sc.dirty)
	freeze := c.N / 16
	if !(ratio >= 1 && beta > 0) {
		freeze = 0
	}
	sweep := 0
	for sweep < sa.Sweeps {
		copy(sc.prev, sc.out)
		c.sweep(rng, sc.out, sc.delta, sc.dirty, beta)
		beta *= ratio
		sweep++
		check(sweep, false)
		if sa.Sweeps-sweep >= 4 && flips(sc.prev, sc.out) < freeze {
			break
		}
	}
	for i := range sc.thr {
		sc.thr[i] = noThreshold
	}
	for ; sweep < sa.Sweeps; sweep++ {
		c.sweepFrozen(rng, sc.out, sc.delta, sc.dirty, sc.thr, beta)
		beta *= ratio
		check(sweep+1, true)
	}
	return zeros
}

// TestGridDeltasExact: on random k/8 programs over all three topology
// kinds, every delta an SA run caches equals PackedFlipDelta after
// every sweep, hot and frozen, cold, warm and under a gauge, ±0 aside
// (== holds for both zeros). Gaussian programs, which are off grid, and
// SQA runs share the two scratches, so nothing an on-grid run leaves
// behind may reach another run. Each stepped run must also end where
// SampleInto or SampleWarmInto from the same seed ends.
func TestGridDeltasExact(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	sqa := &SQA{Slices: 4, Sweeps: 8, Beta: 8, GammaStart: 3, GammaEnd: 0.05}
	var stepped, sampled Scratch
	zeros := 0
	for _, kind := range []string{topology.ChimeraKind, topology.PegasusKind, topology.ZephyrKind} {
		for _, grid := range []bool{true, false} {
			// k/8 weights, k in −3..3, are on grid and often cancel to
			// ±0; Gaussian ones are off grid.
			w := rng.NormFloat64
			if grid {
				w = func() float64 { return float64(rng.Intn(7)-3) / 8 }
			}
			c := Compile(topoIsing(t, rng, kind, w))
			if c.OnGrid != grid {
				t.Fatalf("%s: OnGrid = %v, want %v", kind, c.OnGrid, grid)
			}
			for trial, sa := range []*SimulatedAnnealer{
				DefaultSA(),
				{Sweeps: 16, BetaStart: 0.1, BetaEnd: 8},
				{Sweeps: 24, BetaStart: 2, BetaEnd: 2},
				{Sweeps: 6, BetaStart: 8, BetaEnd: 0.1},
			} {
				seed := rng.Int63()
				gauge := make([]uint64, WordsFor(c.N))
				RandomSpinsInto(NewRand(seed+1), c.N, gauge)
				init := make([]uint64, WordsFor(c.N))
				RandomSpinsInto(NewRand(seed+2), c.N, init)
				for _, run := range []struct {
					name        string
					gauge, init []uint64
				}{{"cold", nil, nil}, {"gauged", gauge, nil}, {"warm", nil, init}} {
					what := fmt.Sprintf("%s %s run %d (on grid %v)", kind, run.name, trial, grid)
					sqa.SampleInto(c, NewRand(seed), &sampled, nil)
					sqa.SampleInto(c, NewRand(seed), &stepped, nil)
					if run.init == nil {
						sa.SampleInto(c, NewRand(seed), &sampled, run.gauge)
					} else {
						sa.SampleWarmInto(c, NewRand(seed), &sampled, run.init)
					}
					zeros += checkedRun(t, what, sa, c, NewRand(seed), &stepped, run.gauge, run.init)
					for k := range sampled.out {
						if stepped.out[k] != sampled.out[k] {
							t.Fatalf("%s: the stepped run's read-out word %d %#x differs from the sampler's %#x", what, k, stepped.out[k], sampled.out[k])
						}
					}
				}
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no checked delta was ±0; the programs do not cancel")
	}
}

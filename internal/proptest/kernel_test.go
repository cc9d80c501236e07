package proptest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/topology"
)

// The packed anneal kernel (internal/anneal/kernel.go) claims BIT-exact
// equivalence with the straightforward ±1-slice implementation it
// replaced: same rng stream, same acceptance decisions, same read-out.
// These properties pin that claim against naive references retained
// here verbatim from the pre-kernel samplers, which draw from
// math/rand while the kernel draws from anneal.Rand, and which read the
// Ising problem's own FlipDelta and Energy while the kernel reads the
// padded program compiled from it, across hardware-shaped problems on
// all three topology kinds and random gauges. Under a gauge the naive
// side anneals the sign-flipped (gauged) problem and undoes the gauge
// on its read-out, while the kernel anneals the one original program
// from a start XOR the gauge mask; the properties below pin that both
// give the same read-out.

// naiveSA is the pre-kernel SimulatedAnnealer.Sample: dense ±1 slice
// state, naive FlipDelta recomputation, math.Exp Metropolis test.
func naiveSA(sa *anneal.SimulatedAnnealer, p *ising.Problem, rng *rand.Rand) []int8 {
	s := anneal.RandomSpins(rng, p.N())
	if sa.Sweeps <= 0 || p.N() == 0 {
		return s
	}
	ratio := 1.0
	if sa.Sweeps > 1 {
		ratio = math.Pow(sa.BetaEnd/sa.BetaStart, 1/float64(sa.Sweeps-1))
	}
	naiveSweeps(p, s, sa.Sweeps, sa.BetaStart, ratio, rng)
	return s
}

// naiveSAWarm is the warm-start reference for SampleWarmInto: the run
// starts from a copy of init with no initial-state draws, and β starts
// at √(BetaStart·BetaEnd) (BetaEnd when that is not positive) and rises
// geometrically to BetaEnd.
func naiveSAWarm(sa *anneal.SimulatedAnnealer, p *ising.Problem, rng *rand.Rand, init []int8) []int8 {
	s := append([]int8(nil), init...)
	if sa.Sweeps <= 0 || p.N() == 0 {
		return s
	}
	beta := math.Sqrt(sa.BetaStart * sa.BetaEnd)
	if !(beta > 0) {
		beta = sa.BetaEnd
	}
	ratio := 1.0
	if sa.Sweeps > 1 && beta > 0 {
		ratio = math.Pow(sa.BetaEnd/beta, 1/float64(sa.Sweeps-1))
	}
	naiveSweeps(p, s, sa.Sweeps, beta, ratio, rng)
	return s
}

// naiveSweeps runs the Metropolis sweeps of both SA references over s
// at β = beta, beta·ratio, …
func naiveSweeps(p *ising.Problem, s []int8, sweeps int, beta, ratio float64, rng *rand.Rand) {
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := 0; i < p.N(); i++ {
			d := p.FlipDelta(s, i)
			if d <= 0 || rng.Float64() < math.Exp(-beta*d) {
				s[i] = -s[i]
			}
		}
		beta *= ratio
	}
}

// naiveSQA is the pre-kernel SQA.Sample: one dense replica slice per
// Trotter layer, per-site transverse-field coupling recomputed naively.
func naiveSQA(q *anneal.SQA, prob *ising.Problem, rng *rand.Rand) []int8 {
	n := prob.N()
	if n == 0 {
		return nil
	}
	p := q.Slices
	if p < 2 {
		p = 2
	}
	betaP := q.Beta / float64(p)
	replicas := make([][]int8, p)
	for k := range replicas {
		replicas[k] = anneal.RandomSpins(rng, n)
	}
	for sweep := 0; sweep < q.Sweeps; sweep++ {
		frac := 0.0
		if q.Sweeps > 1 {
			frac = float64(sweep) / float64(q.Sweeps-1)
		}
		gamma := q.GammaStart + (q.GammaEnd-q.GammaStart)*frac
		jPerp := -0.5 / betaP * math.Log(math.Tanh(betaP*gamma))
		for k := 0; k < p; k++ {
			up := replicas[(k+1)%p]
			down := replicas[(k-1+p)%p]
			cur := replicas[k]
			for i := 0; i < n; i++ {
				d := prob.FlipDelta(cur, i) / float64(p)
				d += 2 * jPerp * float64(cur[i]) * float64(up[i]+down[i])
				if d <= 0 || rng.Float64() < math.Exp(-q.Beta*d) {
					cur[i] = -cur[i]
				}
			}
		}
	}
	best := replicas[0]
	bestE := prob.Energy(best)
	for _, r := range replicas[1:] {
		if e := prob.Energy(r); e < bestE {
			bestE = e
			best = r
		}
	}
	return best
}

// randomTopoProblem draws a random Ising problem over the hardware
// graph of the given kind: the sparse degree-bounded shape the solver
// pipeline feeds the kernel.
func randomTopoProblem(t *testing.T, rng *rand.Rand, kind string) *ising.Problem {
	t.Helper()
	return topoProblem(t, rng, kind, rng.NormFloat64)
}

// topoProblem draws a problem over the 2×3 hardware graph of the given
// kind with a field on every qubit and, with probability 0.9, a
// coupling on every coupler, each weight drawn by w. Rows list their
// lower neighbours first, ascending.
func topoProblem(t *testing.T, rng *rand.Rand, kind string, w func() float64) *ising.Problem {
	t.Helper()
	g, err := topology.New(kind, 2, 3)
	if err != nil {
		t.Fatalf("topology.New(%s): %v", kind, err)
	}
	n := g.NumQubits()
	p := ising.New(n)
	for q := 0; q < n; q++ {
		p.AddField(q, w())
		for _, nb := range g.Neighbors(q) {
			if nb > q && rng.Float64() < 0.9 {
				p.AddCoupling(q, nb, w())
			}
		}
	}
	return p
}

// randomMask draws a packed spin-reversal mask over n spins (bit set ⇔
// spin reversed).
func randomMask(rng *rand.Rand, n int) []uint64 {
	mask := make([]uint64, anneal.WordsFor(n))
	for i := 0; i < n; i++ {
		mask[i>>6] |= uint64(rng.Intn(2)) << (uint(i) & 63)
	}
	return mask
}

// maskBit reports whether spin i is reversed under mask.
func maskBit(mask []uint64, i int) uint64 { return mask[i>>6] >> (uint(i) & 63) & 1 }

// gaugeProgram builds the spin-reversal transform of c under mask:
// h_i changes sign where bit i is set, and J_ij where exactly one
// endpoint's bit is, each as an IEEE-754 sign-bit flip in the padded
// rows. The topology arrays are shared, so neighbor order (and
// rounding) is c's.
func gaugeProgram(c *anneal.Compiled, mask []uint64) *anneal.Compiled {
	g := *c
	g.H = make([]float64, c.N)
	g.PW = make([]uint64, len(c.PW))
	for i := 0; i < c.N; i++ {
		fi := maskBit(mask, i)
		g.H[i] = math.Float64frombits(math.Float64bits(c.H[i]) ^ fi<<63)
		for k := 0; k < int(c.Deg[i]); k++ {
			at := i*c.Stride + k
			g.PW[at] = c.PW[at] ^ (fi^maskBit(mask, int(c.PNbr[at])))<<63
		}
	}
	return &g
}

// gaugeIsing is gaugeProgram on the Ising problem the naive references
// read. It re-adds the couplings row by row, i ascending, which keeps
// the row order of a problem whose rows list their lower neighbours
// ascending before their higher ones (randomTopoProblem's and
// FromQUBO's do); TestKernelEnergyAndDeltaBitExact checks that its
// compiled form equals gaugeProgram's.
func gaugeIsing(p *ising.Problem, mask []uint64) *ising.Problem {
	flip := func(w float64, b uint64) float64 { return math.Float64frombits(math.Float64bits(w) ^ b<<63) }
	g := ising.New(p.N())
	g.Offset = p.Offset
	for i := 0; i < p.N(); i++ {
		fi := maskBit(mask, i)
		g.AddField(i, flip(p.Field(i), fi))
		for _, t := range p.Neighbors(i) {
			if t.Other > i {
				g.AddCoupling(i, t.Other, flip(t.W, fi^maskBit(mask, t.Other)))
			}
		}
	}
	return g
}

// xorWords returns a ⊕ b.
func xorWords(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for w := range a {
		out[w] = a[w] ^ b[w]
	}
	return out
}

// TestKernelEnergyAndDeltaBitExact: on every topology kind and random
// gauge, the packed energy and flip-delta evaluations equal the naive
// slice forms bit-for-bit (== on float64, not a tolerance).
func TestKernelEnergyAndDeltaBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, kind := range []string{topology.ChimeraKind, topology.PegasusKind, topology.ZephyrKind} {
		p := randomTopoProblem(t, rng, kind)
		c := anneal.Compile(p)
		for trial := 0; trial < 6; trial++ {
			naive, prog := p, c
			if trial > 0 { // trial 0 is the identity gauge
				mask := randomMask(rng, c.N)
				naive, prog = gaugeIsing(p, mask), gaugeProgram(c, mask)
				if !reflect.DeepEqual(anneal.Compile(naive), prog) {
					t.Fatalf("%s trial %d: the gauged Ising problem compiles to a different program than the gauged program", kind, trial)
				}
			}
			s := anneal.RandomSpins(rng, prog.N)
			words := make([]uint64, anneal.WordsFor(prog.N))
			anneal.PackSpins(s, words)
			if got, want := prog.PackedEnergy(words), naive.Energy(s); got != want {
				t.Fatalf("%s trial %d: PackedEnergy %v != Energy %v", kind, trial, got, want)
			}
			for i := 0; i < prog.N; i++ {
				if got, want := prog.PackedFlipDelta(words, i), naive.FlipDelta(s, i); got != want {
					t.Fatalf("%s trial %d spin %d: PackedFlipDelta %v != FlipDelta %v", kind, trial, i, got, want)
				}
			}
		}
	}
}

// TestKernelSweepsMatchNaive: a full SA and SQA run from the same seed
// produces the identical read-out through the packed kernel and the
// naive reference — the rng-draw sequence, every Metropolis decision,
// and the final state all preserved. Under a gauge the naive reference
// anneals the gauged program and undoes the gauge on its read-out, and
// the kernel anneals the original program from its start XOR the mask.
// The scratch is deliberately shared across kinds, gauges, and samplers
// so any state leaking between runs would break the comparison.
func TestKernelSweepsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	sa := anneal.DefaultSA()
	sqa := anneal.DefaultSQA()
	sc := anneal.NewScratch()
	for _, kind := range []string{topology.ChimeraKind, topology.PegasusKind, topology.ZephyrKind} {
		p := randomTopoProblem(t, rng, kind)
		c := anneal.Compile(p)
		if c.OnGrid {
			t.Fatalf("%s: the Gaussian program is on grid; the off-grid recompute path has lost its coverage here", kind)
		}
		for trial := 0; trial < 3; trial++ {
			var mask []uint64
			naiveProblem := p
			if trial > 0 {
				mask = randomMask(rng, c.N)
				naiveProblem = gaugeIsing(p, mask)
			}
			seed := rng.Int63()
			check := func(name string, naive []int8) {
				t.Helper()
				want := make([]uint64, anneal.WordsFor(c.N))
				anneal.PackSpins(naive, want)
				if mask != nil {
					want = xorWords(want, mask)
				}
				got := sc.Words()
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%s trial %d: %s read-out word %d kernel %#x != naive %#x", kind, trial, name, w, got[w], want[w])
					}
				}
			}

			naive := naiveSA(sa, naiveProblem, rand.New(rand.NewSource(seed)))
			sa.SampleInto(c, anneal.NewRand(seed), sc, mask)
			check("SA", naive)

			naive = naiveSQA(sqa, naiveProblem, rand.New(rand.NewSource(seed)))
			sqa.SampleInto(c, anneal.NewRand(seed), sc, mask)
			check("SQA", naive)

			// Warm runs take no gauge (TestGaugeIdentity covers one);
			// the naive side anneals the gauged problem from init⊕mask.
			init := anneal.RandomSpins(rng, c.N)
			words := make([]uint64, anneal.WordsFor(c.N))
			anneal.PackSpins(init, words)
			if mask != nil {
				anneal.UnpackSpins(xorWords(words, mask), init)
			}
			naive = naiveSAWarm(sa, naiveProblem, rand.New(rand.NewSource(seed)), init)
			sa.SampleWarmInto(c, anneal.NewRand(seed), sc, words)
			check("SA warm", naive)
		}
	}
}

// paperProgram is the physical Ising program that a QA solve of a
// GenerateEmbeddable instance of class samples on the D-Wave 2X graph.
func paperProgram(t *testing.T, class mqo.Class) *ising.Problem {
	t.Helper()
	g := chimera.DWave2X(0, 0)
	p, err := core.GenerateEmbeddable(rand.New(rand.NewSource(3)), g, class, mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapping := logical.Map(p)
	emb, _, err := core.EmbedProblem(g, p, mapping, core.PatternAuto)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := embedding.PhysicalMap(emb, mapping.QUBO, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return ising.FromQUBO(phys.QUBO)
}

// checkReadout fails unless the kernel's packed read-out equals the
// naive reference's spins.
func checkReadout(t *testing.T, what string, got []uint64, naive []int8) {
	t.Helper()
	want := make([]uint64, anneal.WordsFor(len(naive)))
	anneal.PackSpins(naive, want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kernel read-out differs from the naive reference", what)
	}
}

// TestKernelMatchesNaiveOnPaperClasses: the physical programs of the
// 537×2 and 108×5 paper classes freeze far more than the random
// Gaussian programs above, so the kernel's certain-reject fast path
// decides most of their visits. Their weights are on grid, so their
// runs update cached deltas in place, where the Gaussian programs'
// runs recompute them. Fifty cold runs, each followed by a
// warm run from its read-out as a session delta does, draw from one
// stream and must equal the naive references read-out for read-out.
func TestKernelMatchesNaiveOnPaperClasses(t *testing.T) {
	const runs = 50
	sa := anneal.DefaultSA()
	sc := anneal.NewScratch()
	for _, class := range []mqo.Class{{Queries: 537, PlansPerQuery: 2}, {Queries: 108, PlansPerQuery: 5}} {
		p := paperProgram(t, class)
		c := anneal.Compile(p)
		if !c.OnGrid {
			t.Fatalf("%v: the paper program is off grid; the in-place delta path has lost its coverage here", class)
		}
		kernelRng, naiveRng := anneal.NewRand(104), rand.New(rand.NewSource(104))
		var certainCold, certainWarm int
		for run := 0; run < runs; run++ {
			naive := naiveSA(sa, p, naiveRng)
			sa.SampleInto(c, kernelRng, sc, nil)
			checkReadout(t, fmt.Sprintf("%v cold run %d", class, run), sc.Words(), naive)
			certainCold += sc.CertainRejects()

			init := append([]uint64(nil), sc.Words()...)
			naive = naiveSAWarm(sa, p, naiveRng, naive)
			sa.SampleWarmInto(c, kernelRng, sc, init)
			checkReadout(t, fmt.Sprintf("%v warm run %d", class, run), sc.Words(), naive)
			certainWarm += sc.CertainRejects()
		}
		visits := float64(runs * sa.Sweeps * c.N)
		t.Logf("%d×%d (%d spins): certain-reject share %.1f%% of cold visits, %.1f%% of warm visits",
			class.Queries, class.PlansPerQuery, c.N, 100*float64(certainCold)/visits, 100*float64(certainWarm)/visits)
	}
}

// TestKernelSchedulesMatchNaive: schedules on which a certain-reject
// threshold must not be used or cannot pay off — a falling β, a zero
// start (cold β is NaN from its second sweep), one sweep and two — give
// the naive references' read-outs, cold and warm. One scratch serves
// programs of different sizes and is handed over by an SQA run before
// every SA run, so nothing may carry over from one run to the next.
func TestKernelSchedulesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	problems := []*ising.Problem{
		paperProgram(t, mqo.Class{Queries: 108, PlansPerQuery: 5}),
		randomTopoProblem(t, rng, topology.ChimeraKind),
		randomTopoProblem(t, rng, topology.ZephyrKind),
	}
	sqa := &anneal.SQA{Slices: 4, Sweeps: 8, Beta: 8, GammaStart: 3, GammaEnd: 0.05}
	sc := anneal.NewScratch()
	for _, sa := range []*anneal.SimulatedAnnealer{
		{Sweeps: 64, BetaStart: 8, BetaEnd: 0.1},
		{Sweeps: 64, BetaStart: 0, BetaEnd: 8},
		{Sweeps: 1, BetaStart: 0.1, BetaEnd: 8},
		{Sweeps: 2, BetaStart: 0.1, BetaEnd: 8},
	} {
		for _, p := range problems {
			c := anneal.Compile(p)
			what := fmt.Sprintf("%+v on %d spins", *sa, c.N)
			seed := rng.Int63()
			sqa.SampleInto(c, anneal.NewRand(seed), sc, nil)
			naive := naiveSA(sa, p, rand.New(rand.NewSource(seed)))
			sa.SampleInto(c, anneal.NewRand(seed), sc, nil)
			checkReadout(t, what+" cold", sc.Words(), naive)

			init := anneal.RandomSpins(rng, c.N)
			words := make([]uint64, anneal.WordsFor(c.N))
			anneal.PackSpins(init, words)
			sqa.SampleInto(c, anneal.NewRand(seed), sc, nil)
			naive = naiveSAWarm(sa, p, rand.New(rand.NewSource(seed)), init)
			sa.SampleWarmInto(c, anneal.NewRand(seed), sc, words)
			checkReadout(t, what+" warm", sc.Words(), naive)
		}
	}
}

// TestGaugeIdentity: on every topology kind, a kernel run on the
// original program from start s⊕g equals a run on the gauged program
// from s, XOR g — for SA cold, SA warm and SQA. This is the identity
// that lets each gauge batch sample the one compiled program.
func TestGaugeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	sa := &anneal.SimulatedAnnealer{Sweeps: 24, BetaStart: 0.1, BetaEnd: 8}
	sqa := &anneal.SQA{Slices: 4, Sweeps: 16, Beta: 8, GammaStart: 3, GammaEnd: 0.05}
	for _, kind := range []string{topology.ChimeraKind, topology.PegasusKind, topology.ZephyrKind} {
		c := anneal.Compile(randomTopoProblem(t, rng, kind))
		for trial := 0; trial < 4; trial++ {
			mask := randomMask(rng, c.N)
			gauged := gaugeProgram(c, mask)
			seed := rng.Int63()
			init := randomMask(rng, c.N) // any packed state
			runs := []struct {
				name                 string
				onOriginal, onGauged func(sc *anneal.Scratch)
			}{
				{"SA cold",
					func(sc *anneal.Scratch) { sa.SampleInto(c, anneal.NewRand(seed), sc, mask) },
					func(sc *anneal.Scratch) { sa.SampleInto(gauged, anneal.NewRand(seed), sc, nil) }},
				{"SA warm",
					func(sc *anneal.Scratch) { sa.SampleWarmInto(c, anneal.NewRand(seed), sc, init) },
					func(sc *anneal.Scratch) {
						sa.SampleWarmInto(gauged, anneal.NewRand(seed), sc, xorWords(init, mask))
					}},
				{"SQA",
					func(sc *anneal.Scratch) { sqa.SampleInto(c, anneal.NewRand(seed), sc, mask) },
					func(sc *anneal.Scratch) { sqa.SampleInto(gauged, anneal.NewRand(seed), sc, nil) }},
			}
			for _, run := range runs {
				var a, b anneal.Scratch
				run.onOriginal(&a)
				run.onGauged(&b)
				if got, want := a.Words(), xorWords(b.Words(), mask); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d: %s on the original program from s⊕g differs from the gauged run from s, XOR g", kind, trial, run.name)
				}
			}
		}
	}
}

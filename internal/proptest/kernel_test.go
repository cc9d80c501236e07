package proptest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/ising"
	"repro/internal/topology"
)

// The packed anneal kernel (internal/anneal/kernel.go) claims BIT-exact
// equivalence with the straightforward ±1-slice implementation it
// replaced: same rng stream, same acceptance decisions, same read-out.
// These properties pin that claim against naive references retained
// here verbatim from the pre-kernel samplers, which draw from
// math/rand while the kernel draws from anneal.Rand, across
// hardware-shaped programs on all three topology kinds and random
// gauges. Under a gauge the naive side anneals the sign-flipped
// (gauged) program and undoes the gauge on its read-out, while the
// kernel anneals the one original program from a start XOR the gauge
// mask; the properties below pin that both give the same read-out.

// naiveSA is the pre-kernel SimulatedAnnealer.Sample: dense ±1 slice
// state, naive FlipDelta recomputation, math.Exp Metropolis test.
func naiveSA(sa *anneal.SimulatedAnnealer, c *anneal.Compiled, rng *rand.Rand) []int8 {
	s := anneal.RandomSpins(rng, c.N)
	if sa.Sweeps <= 0 || c.N == 0 {
		return s
	}
	ratio := 1.0
	if sa.Sweeps > 1 {
		ratio = math.Pow(sa.BetaEnd/sa.BetaStart, 1/float64(sa.Sweeps-1))
	}
	beta := sa.BetaStart
	for sweep := 0; sweep < sa.Sweeps; sweep++ {
		for i := 0; i < c.N; i++ {
			d := c.FlipDelta(s, i)
			if d <= 0 || rng.Float64() < math.Exp(-beta*d) {
				s[i] = -s[i]
			}
		}
		beta *= ratio
	}
	return s
}

// naiveSQA is the pre-kernel SQA.Sample: one dense replica slice per
// Trotter layer, per-site transverse-field coupling recomputed naively.
func naiveSQA(q *anneal.SQA, c *anneal.Compiled, rng *rand.Rand) []int8 {
	if c.N == 0 {
		return nil
	}
	p := q.Slices
	if p < 2 {
		p = 2
	}
	betaP := q.Beta / float64(p)
	replicas := make([][]int8, p)
	for k := range replicas {
		replicas[k] = anneal.RandomSpins(rng, c.N)
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
			for i := 0; i < c.N; i++ {
				d := c.FlipDelta(cur, i) / float64(p)
				d += 2 * jPerp * float64(cur[i]) * float64(up[i]+down[i])
				if d <= 0 || rng.Float64() < math.Exp(-q.Beta*d) {
					cur[i] = -cur[i]
				}
			}
		}
	}
	best := replicas[0]
	bestE := c.Energy(best)
	for _, r := range replicas[1:] {
		if e := c.Energy(r); e < bestE {
			bestE = e
			best = r
		}
	}
	return best
}

// randomTopoProgram compiles a random Ising program over the hardware
// graph of the given kind: the sparse degree-bounded shape the solver
// pipeline feeds the kernel.
func randomTopoProgram(t *testing.T, rng *rand.Rand, kind string) *anneal.Compiled {
	t.Helper()
	g, err := topology.New(kind, 2, 3)
	if err != nil {
		t.Fatalf("topology.New(%s): %v", kind, err)
	}
	n := g.NumQubits()
	p := ising.New(n)
	for q := 0; q < n; q++ {
		p.AddField(q, rng.NormFloat64())
		for _, nb := range g.Neighbors(q) {
			if nb > q && rng.Float64() < 0.9 {
				p.AddCoupling(q, nb, rng.NormFloat64())
			}
		}
	}
	return anneal.Compile(p)
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

// gaugeProgram builds the spin-reversal transform of c under mask:
// h_i changes sign where bit i is set, and J_ij where exactly one
// endpoint's bit is, each as an IEEE-754 sign-bit flip. The topology
// arrays are shared, so neighbor order (and rounding) is c's.
func gaugeProgram(c *anneal.Compiled, mask []uint64) *anneal.Compiled {
	bit := func(i int32) uint64 { return mask[i>>6] >> (uint(i) & 63) & 1 }
	g := *c
	g.H = make([]float64, c.N)
	g.W = make([]float64, len(c.W))
	g.PW = make([]uint64, len(c.PW))
	for i := int32(0); int(i) < c.N; i++ {
		fi := bit(i)
		g.H[i] = math.Float64frombits(math.Float64bits(c.H[i]) ^ fi<<63)
		for k := c.Off[i]; k < c.Off[i+1]; k++ {
			g.W[k] = math.Float64frombits(math.Float64bits(c.W[k]) ^ (fi^bit(c.Nbr[k]))<<63)
		}
		for k := 0; k < int(c.Deg[i]); k++ {
			at := int(i)*c.Stride + k
			g.PW[at] = c.PW[at] ^ (fi^bit(c.PNbr[at]))<<63
		}
	}
	return &g
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
		c := randomTopoProgram(t, rng, kind)
		for trial := 0; trial < 6; trial++ {
			prog := c
			if trial > 0 { // trial 0 is the identity gauge
				prog = gaugeProgram(c, randomMask(rng, c.N))
			}
			s := anneal.RandomSpins(rng, prog.N)
			words := make([]uint64, anneal.WordsFor(prog.N))
			anneal.PackSpins(s, words)
			if got, want := prog.PackedEnergy(words), prog.Energy(s); got != want {
				t.Fatalf("%s trial %d: PackedEnergy %v != Energy %v", kind, trial, got, want)
			}
			for i := 0; i < prog.N; i++ {
				if got, want := prog.PackedFlipDelta(words, i), prog.FlipDelta(s, i); got != want {
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
		c := randomTopoProgram(t, rng, kind)
		for trial := 0; trial < 3; trial++ {
			var mask []uint64
			prog := c
			if trial > 0 {
				mask = randomMask(rng, c.N)
				prog = gaugeProgram(c, mask)
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

			naive := naiveSA(sa, prog, rand.New(rand.NewSource(seed)))
			sa.SampleInto(c, anneal.NewRand(seed), sc, mask)
			check("SA", naive)

			naive = naiveSQA(sqa, prog, rand.New(rand.NewSource(seed)))
			sqa.SampleInto(c, anneal.NewRand(seed), sc, mask)
			check("SQA", naive)
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
		c := randomTopoProgram(t, rng, kind)
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

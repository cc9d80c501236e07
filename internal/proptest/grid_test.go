package proptest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/ising"
	"repro/internal/topology"
)

// An on-grid program (anneal.Compiled.OnGrid) keeps its cached flip
// deltas exact by updating them in place on every accepted flip, where
// an off-grid one recomputes them. The properties below pin both sides
// of that check against the naive references: random on-grid programs
// give the naive read-outs, and crafted programs, just off the grid,
// would not if the kernel took them for on-grid ones.

// gridTopoProblem draws a program over the hardware graph of the given
// kind whose fields and couplings are k/8 for k in −3..3, so local
// fields often cancel to ±0.
func gridTopoProblem(t *testing.T, rng *rand.Rand, kind string) *ising.Problem {
	t.Helper()
	return topoProblem(t, rng, kind, func() float64 { return float64(rng.Intn(7)-3) / 8 })
}

// TestKernelMatchesNaiveOnGrid is TestKernelSweepsMatchNaive on k/8
// programs, which are on grid: SA cold, SA cold under a gauge, SA warm
// and SQA equal the naive references read-out for read-out. One scratch
// serves them and the Gaussian programs, which are off grid, so nothing
// either kind of run leaves in it may reach the other.
func TestKernelMatchesNaiveOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	sa := anneal.DefaultSA()
	sqa := &anneal.SQA{Slices: 4, Sweeps: 16, Beta: 8, GammaStart: 3, GammaEnd: 0.05}
	sc := anneal.NewScratch()
	for _, kind := range []string{topology.ChimeraKind, topology.PegasusKind, topology.ZephyrKind} {
		for _, p := range []*ising.Problem{gridTopoProblem(t, rng, kind), randomTopoProblem(t, rng, kind)} {
			c := anneal.Compile(p)
			for trial := 0; trial < 3; trial++ {
				what := fmt.Sprintf("%s trial %d (on grid %v)", kind, trial, c.OnGrid)
				seed := rng.Int63()
				mask := randomMask(rng, c.N)
				gauged := gaugeIsing(p, mask)
				check := func(run string, naive []int8, mask []uint64) {
					t.Helper()
					want := make([]uint64, anneal.WordsFor(c.N))
					anneal.PackSpins(naive, want)
					if mask != nil {
						want = xorWords(want, mask)
					}
					if !reflect.DeepEqual(sc.Words(), want) {
						t.Fatalf("%s: %s read-out differs from the naive reference", what, run)
					}
				}

				sa.SampleInto(c, anneal.NewRand(seed), sc, nil)
				check("SA cold", naiveSA(sa, p, rand.New(rand.NewSource(seed))), nil)

				sa.SampleInto(c, anneal.NewRand(seed), sc, mask)
				check("SA gauged", naiveSA(sa, gauged, rand.New(rand.NewSource(seed))), mask)

				init := anneal.RandomSpins(rng, c.N)
				words := make([]uint64, anneal.WordsFor(c.N))
				anneal.PackSpins(init, words)
				sa.SampleWarmInto(c, anneal.NewRand(seed), sc, words)
				check("SA warm", naiveSAWarm(sa, p, rand.New(rand.NewSource(seed)), init), nil)

				sqa.SampleInto(c, anneal.NewRand(seed), sc, mask)
				check("SQA gauged", naiveSQA(sqa, gauged, rand.New(rand.NewSource(seed))), mask)
			}
		}
	}
}

// TestGridCheckPreventsDivergence: two crafted programs whose cached
// deltas, if updated in place, leave the naive recompute's sign. Spin 0
// is visited, rejected, and visited again after its neighbour spin 1
// flips; its row sums its field, the flipped coupling, and a coupling
// to a spin held fixed.
//
//   - Past the bound: h₀ = 2^53 and unit couplings, where the row-order
//     sum drops a unit (2^53 + 1 rounds to 2^53). The in-place delta is
//     the true 0, so spin 0 flips without a draw; the recompute gives 2
//     and draws.
//   - Off grid: 0.1, 0.2 and 0.3, where the recompute leaves 5.6e-17
//     and the in-place delta 0. β = 2^60 makes the draw a certain
//     rejection.
//
// Compile must take both for off-grid programs, and the kernel must
// give the naive read-out. The same program marked on grid must not,
// which shows that the check is what keeps them equal.
func TestGridCheckPreventsDivergence(t *testing.T) {
	two53 := math.Ldexp(1, 53)
	for _, tc := range []struct {
		name   string
		beta   float64
		h      []float64
		j      [][3]float64 // i, j, J in the order the rows list them
		spinUp []bool       // the warm start, spin i = +1 where true
	}{
		{"past the bound", 8,
			[]float64{two53, -8, 8, -(two53 + 8)},
			[][3]float64{{0, 1, 1}, {0, 2, 1}, {0, 3, -two53}},
			[]bool{true, false, false, true}},
		{"off grid", math.Ldexp(1, 60),
			[]float64{0.2, 1, -1},
			[][3]float64{{0, 1, 0.3}, {0, 2, 0.1}},
			[]bool{false, true, true}},
	} {
		p := ising.New(len(tc.h))
		for i, h := range tc.h {
			p.AddField(i, h)
		}
		for _, j := range tc.j {
			p.AddCoupling(int(j[0]), int(j[1]), j[2])
		}
		init := make([]int8, p.N())
		for i, up := range tc.spinUp {
			init[i] = -1
			if up {
				init[i] = 1
			}
		}
		words := make([]uint64, anneal.WordsFor(p.N()))
		anneal.PackSpins(init, words)
		sa := &anneal.SimulatedAnnealer{Sweeps: 2, BetaStart: tc.beta, BetaEnd: tc.beta}
		naive := naiveSAWarm(sa, p, rand.New(rand.NewSource(1)), init)
		want := make([]uint64, len(words))
		anneal.PackSpins(naive, want)

		c := anneal.Compile(p)
		if c.OnGrid {
			t.Fatalf("%s: Compile marks the program on grid", tc.name)
		}
		var sc anneal.Scratch
		sa.SampleWarmInto(c, anneal.NewRand(1), &sc, words)
		checkReadout(t, tc.name, sc.Words(), naive)

		forced := *c
		forced.OnGrid = true
		sa.SampleWarmInto(&forced, anneal.NewRand(1), &sc, words)
		if sc.Words()[0] == want[0] {
			t.Fatalf("%s: marked on grid, the kernel still gives the naive read-out %04b; the program no longer shows what the check prevents", tc.name, want[0])
		}
	}
}

// fuzzSchedules are the SA schedules FuzzExactDeltas picks from: the
// default cold one, a short one, and flat ones cold enough that a delta
// a few ulps above zero is a certain rejection.
var fuzzSchedules = []anneal.SimulatedAnnealer{
	{Sweeps: 64, BetaStart: 0.1, BetaEnd: 8},
	{Sweeps: 8, BetaStart: 1, BetaEnd: math.Ldexp(1, 40)},
	{Sweeps: 2, BetaStart: 8, BetaEnd: 8},
	{Sweeps: 2, BetaStart: math.Ldexp(1, 60), BetaEnd: math.Ldexp(1, 60)},
	{Sweeps: 24, BetaStart: math.Ldexp(1, 60), BetaEnd: math.Ldexp(1, 60)},
}

// fuzzProgram decodes a program of n ≤ 16 spins, a warm start and a
// schedule from data. The header is n−1, the grid exponent q, the
// schedule and the warm start's bits (set ⇔ spin −1, two bytes); then
// each 5-byte record (a, b, k as int16, s) adds the weight k·2^((s&63)−q)
// to h_a when a ≡ b (mod n) and to J_ab otherwise, divided by 10 when
// s's top bit is set. Weights repeat and cancel, reach the magnitude
// bound through s, and leave the grid through the division.
func fuzzProgram(data []byte) (*ising.Problem, []int8, *anneal.SimulatedAnnealer) {
	var head [5]byte
	copy(head[:], data)
	n, q := 1+int(head[0])%16, int(head[1])%64
	sa := fuzzSchedules[int(head[2])%len(fuzzSchedules)]
	bits := uint(head[3]) | uint(head[4])<<8
	init := make([]int8, n)
	for i := range init {
		init[i] = int8(1 - 2*int(bits>>uint(i)&1))
	}
	p := ising.New(n)
	rec := data[min(len(data), len(head)):]
	for r := 0; r+5 <= len(rec) && r < 5*64; r += 5 {
		a, b := int(rec[r])%n, int(rec[r+1])%n
		w := math.Ldexp(float64(int16(uint16(rec[r+2])|uint16(rec[r+3])<<8)), int(rec[r+4]&63)-q)
		if rec[r+4]&0x80 != 0 {
			w /= 10
		}
		if a == b {
			p.AddField(a, w)
		} else {
			p.AddCoupling(a, b, w)
		}
	}
	return p, init, &sa
}

// FuzzExactDeltas: on fuzzer-chosen programs, on grid, at or past the
// magnitude bound and off grid, a cold and a warm SA run give the naive
// references' read-outs bit for bit, whichever way Compile decides.
func FuzzExactDeltas(f *testing.F) {
	// testdata/fuzz/FuzzExactDeltas holds the crafted programs of
	// TestGridCheckPreventsDivergence, a k/8 program and programs at the
	// bound in this encoding.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 2, 255, 255, 2}, int64(1))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p, init, sa := fuzzProgram(data)
		c := anneal.Compile(p)
		var sc anneal.Scratch
		sa.SampleInto(c, anneal.NewRand(seed), &sc, nil)
		checkReadout(t, fmt.Sprintf("cold %+v (on grid %v)", *sa, c.OnGrid), sc.Words(), naiveSA(sa, p, rand.New(rand.NewSource(seed))))

		words := make([]uint64, anneal.WordsFor(c.N))
		anneal.PackSpins(init, words)
		sa.SampleWarmInto(c, anneal.NewRand(seed), &sc, words)
		checkReadout(t, fmt.Sprintf("warm %+v (on grid %v)", *sa, c.OnGrid), sc.Words(), naiveSAWarm(sa, p, rand.New(rand.NewSource(seed)), init))
	})
}

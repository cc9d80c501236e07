package anneal

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ising"
)

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 63, 64, 65, 130} {
		s := RandomSpins(rng, n)
		words := make([]uint64, WordsFor(n))
		PackSpins(s, words)
		back := make([]int8, n)
		UnpackSpins(words, back)
		for i := range s {
			if s[i] != back[i] {
				t.Fatalf("n=%d: spin %d round-trips %d -> %d", n, i, s[i], back[i])
			}
		}
		bits := make([]bool, n)
		UnpackBits(words, bits)
		for i := range s {
			if bits[i] != (s[i] == 1) {
				t.Fatalf("n=%d: UnpackBits[%d] = %v for spin %d", n, i, bits[i], s[i])
			}
		}
		// Trailing bits beyond n must be cleared so whole-word XOR
		// operations (a gauge mask on the start state) cannot leak
		// garbage.
		for w := range words {
			words[w] = ^uint64(0)
		}
		PackSpins(s, words)
		if rem := uint(n) & 63; rem != 0 {
			if tail := words[len(words)-1] &^ (1<<rem - 1); tail != 0 {
				t.Fatalf("n=%d: trailing bits not cleared: %#x", n, tail)
			}
		}
	}
}

func TestPackedFlipDeltaMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(80)
		p := randomIsing(rng, n, 0.2)
		c := Compile(p)
		s := RandomSpins(rng, n)
		words := make([]uint64, WordsFor(n))
		PackSpins(s, words)
		for i := 0; i < n; i++ {
			if got, want := c.PackedFlipDelta(words, i), p.FlipDelta(s, i); got != want {
				t.Fatalf("trial %d spin %d: PackedFlipDelta %v != FlipDelta %v (bit-exactness required)", trial, i, got, want)
			}
		}
	}
}

func TestScratchViews(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := Compile(randomIsing(rng, 70, 0.2))
	sc := NewScratch()
	DefaultSA().SampleInto(c, NewRand(14), sc, nil)
	words := sc.Words()
	if len(words) != WordsFor(70) {
		t.Fatalf("Words() has %d words, want %d", len(words), WordsFor(70))
	}
	spins := sc.Spins()
	if len(spins) != 70 {
		t.Fatalf("Spins() has %d entries, want 70", len(spins))
	}
	for i, si := range spins {
		if want := int8(1 - 2*int8(spinBit(words, i))); si != want {
			t.Fatalf("Spins()[%d] = %d disagrees with Words() bit (%d)", i, si, want)
		}
	}
}

// TestAcceptPositiveMatchesExp pins the Metropolis test of a
// positive-delta move to its specification, u < math.Exp(-x) with u
// the rand.Float64 value of the draw, both in accept (SQA) and in the
// SA sweep's inlined copy. Random draws cover the bulk; crafted draws
// sit on every bracket edge (r = 2^k − 1 and 2^k), at r == 0, and on
// the Float64 redraw boundary, each against every table threshold ±1
// ulp, a log grid of x, and x = −ln(u) itself.
func TestAcceptPositiveMatchesExp(t *testing.T) {
	want := func(r uint64, x float64) bool { return float64(r)/(1<<63) < math.Exp(-x) }
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2_000_000; trial++ {
		r := uint64(rng.Int63()) >> rng.Intn(64)
		if r >= redrawAt {
			continue
		}
		x := rng.Float64() * 50
		if got := accept(r, x); got != want(r, x) {
			t.Fatalf("accept(%d, %v) = %v, want %v", r, x, got, !got)
		}
	}

	draws := []uint64{0, 1, redrawAt - 1, redrawAt, 1<<63 - 1}
	for k := 1; k <= 62; k++ {
		draws = append(draws, 1<<k-1, 1<<k)
	}
	var xs []float64
	for m := 1; m < 64; m++ {
		for _, edge := range []float64{rejectAbove[m], acceptBelow[m]} {
			xs = append(xs, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
		}
	}
	for e := -40.0; e <= 10; e += 0.125 {
		xs = append(xs, math.Exp2(e))
	}
	for _, r := range draws {
		// A draw at or above redrawAt is redrawn; the decision falls to
		// the next one, planted far from the first.
		next, decided, consumed := uint64(12345), r, uint(1)
		if r >= redrawAt {
			decided, consumed = next, 2
		}
		cases := xs
		if u := float64(decided) / (1 << 63); u > 0 {
			x := -math.Log(u)
			cases = append(cases[:len(cases):len(cases)], math.Nextafter(x, 0), x, math.Nextafter(x, 1))
		}
		for _, x := range cases {
			if !(x > 0) {
				continue
			}
			if r < redrawAt {
				if got := accept(r, x); got != want(r, x) {
					t.Fatalf("accept(%d, %v) = %v, want %v", r, x, got, !got)
				}
			}
			for _, frozen := range []bool{false, true} {
				flipped, used := sweepOneSpin(frozen, 1, x, r, next)
				if flipped != want(decided, x) {
					t.Fatalf("sweep (frozen %v) draw %d then %d at x = %v: flipped = %v, want %v", frozen, r, next, x, flipped, !flipped)
				}
				if used != consumed {
					t.Fatalf("sweep (frozen %v) draw %d at x = %v consumed %d draws, want %d", frozen, r, x, used, consumed)
				}
			}
		}
		// SQA draws through uniform63, which must redraw the same way.
		g := plantedRand(r, next)
		if got := g.uniform63(); got != decided || g.pos != consumed {
			t.Fatalf("uniform63 over draws %d, %d = %d after %d draws, want %d", r, next, got, g.pos, decided)
		}
	}
}

// plantedRand returns a generator whose next raw outputs are draws.
func plantedRand(draws ...uint64) *Rand {
	g := NewRand(1)
	copy(g.buf[:], draws)
	g.pos = 0
	return g
}

// oneSpin is a program of one free spin whose flip delta is exactly x
// while the spin is +1.
func oneSpin(x float64) *Compiled { return &Compiled{N: 1, H: []float64{-x / 2}, Deg: []int32{0}} }

// sweepOneSpin runs one SA sweep at beta over oneSpin(d) — sweep, or
// sweepFrozen with no threshold set — with the generator's next draws
// planted, and reports whether the spin flipped and how many draws it
// consumed.
func sweepOneSpin(frozen bool, beta, d float64, draws ...uint64) (flipped bool, used uint) {
	c := oneSpin(d)
	words, delta, dirty := []uint64{0}, []float64{0}, []uint64{1}
	g := plantedRand(draws...)
	if frozen {
		c.sweepFrozen(g, words, delta, dirty, []uint64{noThreshold}, beta)
	} else {
		c.sweep(g, words, delta, dirty, beta)
	}
	return words[0] == 1, g.pos
}

// TestExpNegAccuracy bounds the fast exponential's relative error well
// inside the ±1e-9 guard band that acceptBand relies on to route
// ambiguous draws to the math.Exp arbiter.
func TestExpNegAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 500_000; trial++ {
		x := rng.Float64() * 50
		got := expNeg(x)
		want := math.Exp(-x)
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-10 {
			t.Fatalf("expNeg(%v) = %v, math.Exp = %v, rel err %v > 1e-10", x, got, want, rel)
		}
	}
}

// TestSweepRedrawAcrossRefill: a draw to be redrawn in the buffer's
// last slot makes both sweeps refill mid-draw; the decision and the
// generator state after it must be uniform63's.
func TestSweepRedrawAcrossRefill(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		for _, x := range []float64{0.5, 3, 40} {
			g := NewRand(1)
			g.buf[rngLen-1] = redrawAt
			g.pos = rngLen - 1
			ref := *g
			u := float64(ref.uniform63()) / (1 << 63)

			c := oneSpin(x)
			words, delta, dirty := []uint64{0}, []float64{0}, []uint64{1}
			if frozen {
				c.sweepFrozen(g, words, delta, dirty, []uint64{noThreshold}, 1)
			} else {
				c.sweep(g, words, delta, dirty, 1)
			}
			if flipped, want := words[0] == 1, u < math.Exp(-x); flipped != want || g.pos != ref.pos || g.buf != ref.buf {
				t.Fatalf("frozen %v x = %v: flipped = %v at position %d, want %v at %d of the refilled buffer",
					frozen, x, flipped, g.pos, want, ref.pos)
			}
		}
	}
}

// TestSweepRejectsNaNBeta: a cold schedule from BetaStart = 0 reaches
// β = 0·∞ = NaN after its first sweep. u < exp(−NaN) is false for every
// u, so a positive-delta visit draws once and is rejected, in accept and
// in both sweeps' inlined copies of it.
func TestSweepRejectsNaNBeta(t *testing.T) {
	for _, r := range []uint64{0, 1, 1 << 40, 1 << 62, redrawAt - 1} {
		if accept(r, math.NaN()) {
			t.Fatalf("accept(%d, NaN) = true, want false", r)
		}
		for _, frozen := range []bool{false, true} {
			if flipped, used := sweepOneSpin(frozen, math.NaN(), 1, r); flipped || used != 1 {
				t.Fatalf("sweep (frozen %v) at β = NaN, draw %d: flipped = %v after %d draws, want a rejection after 1",
					frozen, r, flipped, used)
			}
		}
	}
}

// largestRejectK is certainReject's k by its definition: the largest m
// in 1..63 with x ≥ rejectAbove[m], or 0 if there is none.
func largestRejectK(x float64) int {
	k := 0
	for m := 1; m < 64; m++ {
		if x >= rejectAbove[m] {
			k = m
		}
	}
	return k
}

// TestCertainRejectIsLargestTableK pins certainReject's branch-free
// estimate to the table it stands for, on every table entry and its
// neighbouring floats, on random x, and beyond the table's end.
func TestCertainRejectIsLargestTableK(t *testing.T) {
	xs := []float64{rejectAbove[63] * 2, 709, 1e300, math.MaxFloat64, math.Inf(1)}
	for m := 1; m < 64; m++ {
		e := rejectAbove[m]
		xs = append(xs, e, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, 0),
			float64(m)*math.Ln2, math.Nextafter(float64(m)*math.Ln2, math.Inf(1)),
			float64(m)*math.Ln2+0.5)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200_000; trial++ {
		xs = append(xs, rejectAbove[1]+rng.Float64()*50)
	}
	for _, x := range xs {
		k := largestRejectK(x)
		if k == 0 {
			continue // below rejectAbove[1]: the bracket rejects no draw
		}
		thr := certainReject(x)
		if want := uint64(1) << (63 - k); thr != want {
			t.Fatalf("certainReject(%v) = %#x, want 2^(63-%d) = %#x", x, thr, k, want)
		}
		// The smallest and largest draws it covers are bracket rejects.
		for _, r := range []uint64{thr, redrawAt - 1} {
			if m := bits.LeadingZeros64(r) & 63; !(x >= rejectAbove[m]) {
				t.Fatalf("x = %v: draw %#x ≥ threshold %#x is not a bracket reject", x, r, thr)
			}
		}
	}
}

// TestFrozenSweepPlantedDraws pins the threshold fast path draw by
// draw. A lone spin is rejected in one frozen sweep, which sets its
// threshold, and visited again in the next at the same or a higher β
// with the draw planted at thr−1, thr, 0, just below and at redrawAt
// and at 2^62. Its flip and the draws it consumes must equal the full
// test's, u < exp(−β·d). A spin that flipped is visited a third time:
// its delta is now negative, so it flips back without a draw.
func TestFrozenSweepPlantedDraws(t *testing.T) {
	want := func(r uint64, x float64) bool { return float64(r)/(1<<63) < math.Exp(-x) }
	var xs []float64
	for k := 1; k < 64; k++ {
		xs = append(xs, rejectAbove[k], math.Nextafter(rejectAbove[k], math.Inf(1)), rejectAbove[k]+0.3)
	}
	xs = append(xs, 100, 1e300, math.Inf(1))
	const first, next = uint64(1) << 62, uint64(12345)
	for _, x := range xs {
		thr := certainReject(x)
		for _, beta := range []float64{1, 1.5} {
			draws := []uint64{thr, 0, redrawAt - 1, redrawAt, 1 << 62}
			if thr > 1 {
				draws = append(draws, thr-1)
			}
			for _, r := range draws {
				decided, consumed := r, uint(2)
				if r >= redrawAt {
					decided, consumed = next, 3
				}
				c := oneSpin(x)
				words, delta, dirty, th := []uint64{0}, []float64{0}, []uint64{1}, []uint64{noThreshold}
				g := plantedRand(first, r, next, first)
				c.sweepFrozen(g, words, delta, dirty, th, 1)
				if words[0] != 0 || g.pos != 1 || th[0] != thr {
					t.Fatalf("x = %v: first sweep flipped %v after %d draws with threshold %#x, want a rejection after 1 draw with threshold %#x",
						x, words[0] == 1, g.pos, th[0], thr)
				}
				c.sweepFrozen(g, words, delta, dirty, th, beta)
				flipped := words[0] == 1
				if w := want(decided, beta*x); flipped != w || g.pos != consumed {
					t.Fatalf("x = %v β = %v, draw %#x after threshold %#x: flipped = %v after %d draws, want %v after %d",
						x, beta, r, thr, flipped, g.pos, w, consumed)
				}
				if !flipped {
					continue
				}
				c.sweepFrozen(g, words, delta, dirty, th, beta)
				if words[0] != 0 || g.pos != consumed {
					t.Fatalf("x = %v β = %v, draw %#x: the flipped spin's next visit ended with spin bit %d after %d draws, want a flip back without a draw",
						x, beta, r, words[0], g.pos-consumed)
				}
			}
		}
	}
}

// TestFrozenSweepNeighborFlipInvalidates: a spin's threshold dies when a
// neighbor flips. Spin 0 is rejected (threshold set), then spin 1 flips,
// which turns spin 0's delta negative; in the next sweep spin 0 must
// flip without a draw, though the planted draw is one its stale
// threshold would reject.
func TestFrozenSweepNeighborFlipInvalidates(t *testing.T) {
	// E = h·s + J·s0·s1 with h = (−5, 20), J = −10, from all +1:
	// d0 = −2(h0 + J·s1) = 30 > 0, d1 = −2(h1 + J·s0) = −20 ≤ 0, and
	// once s1 = −1, d0 = −2(−5 + 10) = −10 ≤ 0.
	p := ising.New(2)
	p.AddField(0, -5)
	p.AddField(1, 20)
	p.AddCoupling(0, 1, -10)
	c := Compile(p)
	words, delta, dirty, thr := []uint64{0}, make([]float64, 2), []uint64{3}, []uint64{noThreshold, noThreshold}
	g := plantedRand(1<<62, 1<<62, 1<<62)
	c.sweepFrozen(g, words, delta, dirty, thr, 1)
	if words[0] != 2 || g.pos != 1 {
		t.Fatalf("first sweep: state %02b after %d draws, want spin 1 flipped after 1 draw", words[0], g.pos)
	}
	c.sweepFrozen(g, words, delta, dirty, thr, 1)
	// Spin 0 flips without a draw; spin 1 (d1 = −2·(−1)·(20 + 10) = 60)
	// then draws 2^62 and is rejected.
	if words[0] != 3 || g.pos != 2 {
		t.Fatalf("second sweep: state %02b after %d draws in all, want both spins −1 after 2", words[0], g.pos)
	}
}

// frozenProgram is n free spins with strong fields: every spin is
// aligned after one sweep, and every later sweep is certain to reject.
func frozenProgram(n int) *Compiled {
	p := ising.New(n)
	for i := 0; i < n; i++ {
		p.AddField(i, 50)
	}
	return Compile(p)
}

// TestAnnealThresholdSchedules: a run uses thresholds only when its β
// never falls and enough sweeps remain. On a program that freezes after
// one sweep, a rising or flat schedule's runs are mostly certain
// rejects, while a falling, zero-start, NaN or too-short schedule must
// set none — a threshold carried into a lower β would reject draws the
// full test accepts. A warm run's β starts at √(BetaStart·BetaEnd), or
// at BetaEnd when that is not positive, so a zero or NaN start is a
// flat warm schedule.
func TestAnnealThresholdSchedules(t *testing.T) {
	c := frozenProgram(256)
	init := make([]uint64, WordsFor(c.N))
	nan := math.NaN()
	for _, tc := range []struct {
		sa         SimulatedAnnealer
		cold, warm bool
	}{
		{SimulatedAnnealer{Sweeps: 64, BetaStart: 0.1, BetaEnd: 8}, true, true},
		{SimulatedAnnealer{Sweeps: 6, BetaStart: 0.1, BetaEnd: 8}, true, true},
		{SimulatedAnnealer{Sweeps: 64, BetaStart: 2, BetaEnd: 2}, true, true},
		{SimulatedAnnealer{Sweeps: 64, BetaStart: 8, BetaEnd: 0.1}, false, false},
		{SimulatedAnnealer{Sweeps: 64, BetaStart: 0, BetaEnd: 8}, false, true},
		{SimulatedAnnealer{Sweeps: 64, BetaStart: nan, BetaEnd: 8}, false, true},
		{SimulatedAnnealer{Sweeps: 64, BetaStart: 0.1, BetaEnd: nan}, false, false},
		{SimulatedAnnealer{Sweeps: 5, BetaStart: 0.1, BetaEnd: 8}, false, false},
		{SimulatedAnnealer{Sweeps: 2, BetaStart: 0.1, BetaEnd: 8}, false, false},
		{SimulatedAnnealer{Sweeps: 1, BetaStart: 0.1, BetaEnd: 8}, false, false},
	} {
		var sc Scratch
		tc.sa.SampleInto(c, NewRand(1), &sc, nil)
		cold := sc.CertainRejects()
		tc.sa.SampleWarmInto(c, NewRand(1), &sc, init)
		warm := sc.CertainRejects()
		if (cold > 0) != tc.cold || (warm > 0) != tc.warm {
			t.Errorf("%+v: certain rejects cold %d, warm %d; want thresholds used cold %v, warm %v",
				tc.sa, cold, warm, tc.cold, tc.warm)
		}
		if max(cold, warm) > tc.sa.Sweeps*c.N {
			t.Errorf("%+v: %d certain rejects exceed the run's %d visits", tc.sa, max(cold, warm), tc.sa.Sweeps*c.N)
		}
	}
}

package anneal

import (
	"math"
	"math/rand"
	"testing"
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
			flipped, used := sweepOneSpin(x, r, next)
			if flipped != want(decided, x) {
				t.Fatalf("sweep draw %d then %d at x = %v: flipped = %v, want %v", r, next, x, flipped, !flipped)
			}
			if used != consumed {
				t.Fatalf("sweep draw %d at x = %v consumed %d draws, want %d", r, x, used, consumed)
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

// sweepOneSpin runs one SA sweep at β = 1 over a single free spin whose
// flip delta is exactly x, with the generator's next draws planted,
// and reports whether the spin flipped and how many draws it consumed.
func sweepOneSpin(x float64, draws ...uint64) (flipped bool, used uint) {
	c := &Compiled{N: 1, H: []float64{-x / 2}, Deg: []int32{0}}
	words, delta, dirty := []uint64{0}, []float64{0}, []uint64{1}
	g := plantedRand(draws...)
	c.sweep(g, words, delta, dirty, 1)
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

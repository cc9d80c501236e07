// Package anneal provides annealing samplers over Ising problems. These
// stand in for the D-Wave 2X hardware, which this reproduction cannot
// access: classical simulated annealing (SA) and simulated quantum
// annealing (SQA, path-integral Monte Carlo with a transverse-field
// schedule) both consume the identical physical Ising input produced by
// the embedding and return one spin read-out per run, exactly like a
// hardware annealing cycle followed by a read-out.
package anneal

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/ising"
)

// Sampler draws one read-out from an annealing run on a physical Ising
// problem. Implementations must be deterministic given the rng.
type Sampler interface {
	// SampleInto runs one anneal writing the read-out into the
	// caller-owned scratch arena (retrieve it with sc.Words or
	// sc.Spins); steady-state calls allocate nothing. gauge is a packed
	// spin-reversal mask of WordsFor(p.N) words (nil: identity), XORed
	// into the uniform start state. A gauge flips h_i and every J_ij
	// with one flipped endpoint; the gauged program's flip delta at s
	// equals p's at s⊕g term by term, and float sums are
	// sign-symmetric, so a run on p from start⊕g takes every decision
	// of a run on the gauged program from start, and its read-out is
	// that run's read-out XOR g — already in p's frame.
	SampleInto(p *Compiled, rng *Rand, sc *Scratch, gauge []uint64)
	// Name identifies the sampler in reports.
	Name() string
}

// WarmSampler is implemented by samplers that can start an annealing run
// from a caller-provided spin state instead of a uniform random draw —
// the surrogate for hardware reverse annealing. Warm runs draw a
// DIFFERENT rng sequence than cold runs (no initial-state draws), so a
// warm solve is deterministic in (seed, init) but is a distinct random
// process from the cold solve with the same seed.
type WarmSampler interface {
	Sampler
	// SampleWarmInto is SampleInto starting from init, a packed spin
	// state of WordsFor(p.N) words (bit set ⇔ spin −1, trailing bits
	// clear). init is read-only; the read-out lands in sc as usual.
	SampleWarmInto(p *Compiled, rng *Rand, sc *Scratch, init []uint64)
}

// Compiled is a frozen Ising sampling program in the fixed-stride padded
// layout the streaming sweep runs on (see kernel.go). Row i holds spin
// i's couplings in the Ising problem's row order, so every local field
// and energy sums the same terms in the same order as
// ising.Problem.FlipDelta and Energy. Compile once per problem, sample
// many times, under every gauge; a Compiled is never mutated after
// Compile returns.
type Compiled struct {
	N int
	H []float64
	// Offset is carried through so energies remain comparable.
	Offset float64

	// Kernel layout: padded rows of Stride entries per spin. Deg/PNbr
	// describe topology; PW holds the raw IEEE-754 weight bits.
	Stride int
	Deg    []int32
	PNbr   []int32
	PW     []uint64

	// OnGrid reports that every h_i and J_ij is an integer multiple of
	// one 2^-q and 2·max_i(|h_i| + Σ_j |J_ij|)·2^q ≤ 2^51, which the
	// programs the paper's mapping builds from integer costs and
	// savings satisfy. Every local field and flip delta of such a
	// program, and every partial sum of one, is then exact in float64,
	// so an accepted flip updates its neighbours' cached deltas in
	// place instead of marking them for a recompute (see kernel.go).
	// A gauge flips signs only, so it keeps the flag.
	OnGrid bool
}

// Compile packs an Ising problem's rows into the padded kernel layout
// and decides OnGrid while it packs, stopping the check at the first
// row that fails it.
func Compile(p *ising.Problem) *Compiled {
	n := p.N()
	c := &Compiled{N: n, H: make([]float64, n), Deg: make([]int32, n), Offset: p.Offset}
	for i := 0; i < n; i++ {
		c.H[i] = p.Field(i)
		c.Deg[i] = int32(len(p.Neighbors(i)))
		c.Stride = max(c.Stride, len(p.Neighbors(i)))
	}
	c.PNbr = make([]int32, n*c.Stride)
	c.PW = make([]uint64, n*c.Stride)
	g := grid{lim: 1 << 50}
	for i := 0; i < n; i++ {
		base := i * c.Stride
		row := p.Neighbors(i)
		for k, t := range row {
			c.PNbr[base+k] = int32(t.Other)
			c.PW[base+k] = math.Float64bits(t.W)
		}
		if !g.off {
			g.row(c.H[i], c.PW[base:base+len(row)])
		}
	}
	c.OnGrid = !g.off
	return c
}

// grid folds a program's rows, one at a time, into the OnGrid test.
// Every finite float64 is a multiple of 2^-1074, so the test is the
// magnitude bound at the coarsest grid that holds every weight. q and
// the largest row magnitude only grow, so a program fails at the first
// row that fails the bound and never passes again.
type grid struct {
	q   int     // every weight folded so far is a multiple of 2^-q, q ≥ 0
	lim float64 // 2^(50−q), the largest row magnitude on grid
	mag float64 // the largest row magnitude |h_i| + Σ_j |J_ij| so far
	off bool    // the rows folded so far fail the bound
}

// row folds in one row: its field h and its weights' bits w. A row
// magnitude is summed in float64, which decides the bound exactly at
// the row's q and at every later one: while the true sum stays at or
// below 2^53·2^-q it is exact, and once it passes that the rounded sum
// stays above 2^(50−q) by monotone rounding. ±Inf or NaN fails.
func (g *grid) row(h float64, w []uint64) {
	m := g.abs(math.Float64bits(h))
	for _, b := range w {
		m += g.abs(b)
	}
	g.mag = max(g.mag, m)
	g.off = !(g.mag <= g.lim)
}

// abs refines the grid to hold the weight with bits b and returns |w|.
// A nonzero w is an odd integer times 2^(e−1075+t), where e is its
// biased exponent (read as 1 for a subnormal, whose significand has no
// hidden bit) and t the trailing zeros of its significand.
func (g *grid) abs(b uint64) float64 {
	b &^= 1 << 63
	if b != 0 {
		e, sig := int(b>>52), b&(1<<52-1)
		if e == 0 {
			e = 1
		} else {
			sig |= 1 << 52
		}
		if q := 1075 - e - bits.TrailingZeros64(sig); q > g.q {
			g.q = q
			g.lim = math.Ldexp(1, 50-q)
		}
	}
	return math.Float64frombits(b)
}

// RandomSpins draws a uniform spin state.
func RandomSpins(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		if rng.Intn(2) == 1 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// SimulatedAnnealer is a classical Metropolis annealer with a geometric
// inverse-temperature schedule. It is both a baseline sampler and the
// cheap surrogate for hardware annealing runs.
type SimulatedAnnealer struct {
	// Sweeps is the number of full-lattice Metropolis sweeps per run.
	Sweeps int
	// BetaStart and BetaEnd bound the geometric β schedule.
	BetaStart, BetaEnd float64
}

// DefaultSA returns the sampler configuration used by the harness: enough
// sweeps to land near-optimal read-outs on embedded MQO instances while
// keeping a 1000-run batch affordable offline.
func DefaultSA() *SimulatedAnnealer {
	return &SimulatedAnnealer{Sweeps: 64, BetaStart: 0.1, BetaEnd: 8}
}

// Name implements Sampler.
func (sa *SimulatedAnnealer) Name() string { return "SA" }

// SQA is a simulated quantum annealer: path-integral Monte Carlo over P
// Trotter replicas of the spin system with a decreasing transverse field
// Γ. Replicas are ferromagnetically coupled with strength
// J⊥ = −(1/(2·βP))·ln(tanh(βP·Γ)) where βP = β/P, which grows as Γ → 0
// and freezes the replicas into a common classical state. The best
// replica is read out, mirroring a hardware annealing cycle.
type SQA struct {
	// Slices is the Trotter number P.
	Slices int
	// Sweeps is the number of full sweeps over all replicas.
	Sweeps int
	// Beta is the (fixed) inverse temperature.
	Beta float64
	// GammaStart and GammaEnd bound the linearly decreasing transverse
	// field schedule.
	GammaStart, GammaEnd float64
}

// DefaultSQA returns the configuration used for the sampler ablation.
func DefaultSQA() *SQA {
	return &SQA{Slices: 8, Sweeps: 48, Beta: 8, GammaStart: 3, GammaEnd: 0.05}
}

// Name implements Sampler.
func (q *SQA) Name() string { return "SQA" }

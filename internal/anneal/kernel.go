package anneal

import (
	"math"
	"math/bits"
)

// This file is the allocation-free streaming kernel behind Sampler. The
// sweep inner loops dominate every QA solve, so the kernel trades a
// generic adjacency walk for a layout and caching scheme tuned to the
// low-degree annealer topologies (Chimera deg ≤ 6, Pegasus ≤ 15,
// Zephyr ≤ 20):
//
//   - Spin state is bit-packed into uint64 words (bit set ⇔ spin −1), so
//     a flip is one XOR and a gauge is a word-wise XOR of the start
//     state against the packed gauge mask (see SampleInto).
//   - Weights are stored as raw IEEE-754 bits in fixed-stride padded rows
//     (PNbr/PW, stride = max degree), so the w·s product is a sign-bit
//     XOR — exact, branch-free, and free of int8→float conversions —
//     and a row address is a multiply instead of two offset loads.
//   - Each spin's flip delta is cached. On an on-grid program
//     (Compiled.OnGrid, which every paper-class program is) an accepted
//     flip of spin i moves each neighbour's cached delta by
//     4·J_ij·s_i·s_j, s_i taken before the flip, so a visit never
//     rebuilds a local field after the run's first sweep. Off grid, a
//     flip marks its neighbours in a dirty bitset and a marked delta is
//     recomputed at its next visit. Every run starts with all deltas
//     marked, so its first sweep computes each one once, on grid or off.
//   - On paper-class programs 97–98.5% of spin visits draw a uniform and
//     91–96% end in a rejected draw, so the draw-and-reject path is what
//     a visit costs. The generator is a concrete Rand (rand.go) whose
//     buffer index the SA sweep keeps in a register, and the Metropolis
//     test decides from the integer draw's leading zeros without
//     math.Exp, converting to a float only inside a narrow band (see
//     metropolis.go).
//   - Most of a run is frozen. Once a sweep flips fewer than N/16 spins,
//     a run moves to sweepFrozen, which keeps a certain-reject draw
//     threshold per spin and decides a visit whose draw cannot overturn
//     its rejection with one load and one compare. On the four paper
//     classes that covers 60–82% of the visits of a cold 64-sweep run
//     and 93–97% of a warm-started one, and a frozen visit of the 537×2
//     program costs 4.0 ns instead of 6.9 on a 2-core Xeon host. The
//     hot opening sweeps keep the full test, which a threshold would
//     rarely skip.
//
// RNG-SEQUENCE PRESERVATION. The kernel must reproduce the historical
// sampler bit-for-bit: every golden fixture in the repo pins spins drawn
// from the shared rng stream. The stream advances only at RandomSpins
// (n × Intn(2)) and at the Metropolis draw, which is short-circuited on
// d ≤ 0 — so the draw pattern depends exactly on the SIGN of every delta
// and each accept depends on u < exp(−β·d). The kernel therefore never
// introduces new roundings:
//
//   - Rand yields math/rand's exact stream, and the sweep's inlined draw
//     redraws exactly where rand.Float64 does;
//   - ±w and ±h are sign-bit flips (exact). Off grid, a delta is
//     recomputed in the Ising problem's row order whenever a neighbor
//     flipped, never accumulated (float accumulation would drift in the
//     low bits and could flip a d ≤ 0 decision), and a cached delta is
//     reused only while no neighbor flipped, when a recompute would
//     return the identical bits;
//   - on grid, every h_i and J_ij is a multiple of one 2^-q and
//     2·max_i(|h_i| + Σ_j |J_ij|)·2^q ≤ 2^51. Every partial sum of
//     h_i + Σ_j J_ij·s_j is then a multiple of 2^-q no larger than that
//     maximum, hence representable, so the row-order float sum equals
//     the real one; so do d_i = −2·s_i·f_i and d_j + 4·J_ij·s_i·s_j,
//     whose real value is the new d_j. A delta updated in place on a
//     neighbour's flip therefore equals what a recompute would return,
//     bit for bit, except for an exact zero: x + (−x) is +0 where
//     −2·s·(+0) can be −0. Every decision reads d only through d > 0,
//     false for both zeros, and forms x = β·d only when d > 0, so no
//     draw, decision, threshold or read-out can differ;
//   - flipping spin i negates its own delta exactly (d' = −d: the local
//     field does not depend on s_i);
//   - accept (metropolis.go) returns the provably identical boolean to
//     u < math.Exp(−β·d) for the u the draw stands for. Note
//     fl((−β)·d) == −fl(β·d) exactly (negation is sign-bit only), so
//     passing x = β·d reproduces the historical math.Exp(-beta*d)
//     argument bit-for-bit. A NaN x (β = 0·∞ on a schedule that starts
//     at zero) rejects, as u < NaN does;
//   - a certain-reject threshold rejects only draws the bracket rejects.
//     When the bracket rejects spin i at x = fl(β·dᵢ), thrᵢ = 2^(63−k)
//     for the largest k with x ≥ rejectAbove[k]. A later draw r with
//     thrᵢ ≤ r < redrawAt has m = LeadingZeros64(r) in [1, k]. While
//     neither i nor a neighbor flips, dᵢ is the same cached value, and
//     while β never falls, β' ≥ β, so fl(β'·dᵢ) ≥ x ≥ rejectAbove[k] ≥
//     rejectAbove[m] by monotone rounding: the full test rejects r too,
//     consuming that one draw and changing nothing else. Any flip in
//     i's row clears thrᵢ in the loop that updates or marks its delta;
//     every frozen phase starts with all thresholds cleared; a schedule
//     whose β can fall, or is zero or NaN, sets none; and r == 0 and the
//     draws to be redrawn always take the full test.

// WordsFor returns the number of uint64 words packing n spins.
func WordsFor(n int) int { return (n + 63) / 64 }

// spinBit returns 1 when packed spin i is −1, 0 when +1.
func spinBit(words []uint64, i int) uint64 {
	return (words[i>>6] >> (uint(i) & 63)) & 1
}

// spinSign returns packed spin i as ±1.0.
func spinSign(words []uint64, i int) float64 {
	return 1 - 2*float64(spinBit(words, i))
}

// PackSpins packs ±1 spins into words (bit set ⇔ spin −1). Unused
// trailing bits are cleared. words must hold WordsFor(len(s)) words.
func PackSpins(s []int8, words []uint64) {
	for w := range words {
		words[w] = 0
	}
	for i, si := range s {
		if si != 1 {
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// UnpackSpins writes the packed state into s as ±1 spins.
func UnpackSpins(words []uint64, s []int8) {
	for i := range s {
		s[i] = int8(1 - 2*int8(spinBit(words, i)))
	}
}

// UnpackBits writes the packed state into x with x[i] = (spin i == +1),
// the binary convention of ising.SpinsToBits.
func UnpackBits(words []uint64, x []bool) {
	for i := range x {
		x[i] = spinBit(words, i) == 0
	}
}

// RandomSpinsInto draws a uniform packed spin state, consuming exactly
// the same rng stream as RandomSpins (one Intn(2) per spin).
func RandomSpinsInto(rng *Rand, n int, words []uint64) {
	for w := range words {
		words[w] = 0
	}
	for i := 0; i < n; i++ {
		words[i>>6] |= uint64(rng.Bit()^1) << (uint(i) & 63)
	}
}

// xorMask XORs the packed gauge mask into words; a nil mask is the
// identity gauge.
func xorMask(words, gauge []uint64) {
	for w := range gauge {
		words[w] ^= gauge[w]
	}
}

// PackedFlipDelta returns the energy change from flipping packed spin i:
// bit-identical to ising.Problem.FlipDelta on the equivalent []int8
// state (the padded row keeps the Ising row order and every sign
// application is exact).
func (c *Compiled) PackedFlipDelta(words []uint64, i int) float64 {
	return -2 * spinSign(words, i) * c.packedLocalField(words, i)
}

// packedLocalField is the local field h_i + Σ_j J_ij·s_j over the packed
// state: h_i plus the sign-adjusted row weights, accumulated in row
// order.
func (c *Compiled) packedLocalField(words []uint64, i int) float64 {
	f := c.H[i]
	base := i * c.Stride
	deg := int(c.Deg[i])
	nbr := c.PNbr[base : base+deg : base+deg]
	wb := c.PW[base : base+deg : base+deg]
	for k := 0; k < deg; k++ {
		j := int(nbr[k])
		b := (words[j>>6] >> (uint(j) & 63)) & 1
		f += math.Float64frombits(wb[k] ^ (b << 63))
	}
	return f
}

// PackedEnergy evaluates the Hamiltonian over the packed state,
// bit-identical to ising.Problem.Energy on the equivalent []int8 state:
// the i-major traversal, the j > i filter, and the term order all
// match, and the ±1 products are exact sign-bit flips.
func (c *Compiled) PackedEnergy(words []uint64) float64 {
	e := c.Offset
	for i := 0; i < c.N; i++ {
		bi := spinBit(words, i)
		e += math.Float64frombits(math.Float64bits(c.H[i]) ^ (bi << 63))
		base := i * c.Stride
		deg := int(c.Deg[i])
		for k := 0; k < deg; k++ {
			if j := int(c.PNbr[base+k]); j > i {
				bj := spinBit(words, j)
				e += math.Float64frombits(c.PW[base+k] ^ ((bi ^ bj) << 63))
			}
		}
	}
	return e
}

// Scratch is a per-worker arena for the sampling hot path: packed spin
// state, the delta cache with its dirty bitset (read throughout an
// off-grid run, and only in the first sweep of an on-grid one), the SQA
// replica ring, and the read-out buffers. A Scratch is owned by exactly
// one worker at a time (internal/exec workers hold one each) and is
// reused across every run of every gauge batch the worker executes, so
// steady-state sweeps allocate nothing. The zero value is ready to use; buffers grow
// on demand and are retained.
//
// OWNERSHIP CONTRACT: the views returned by Words and Spins alias the
// scratch and are valid only until the next SampleInto (or Spins) call
// on the same Scratch. Callers that retain a read-out past that point —
// an incumbent, say — must copy it out first. The certain-reject
// thresholds (thr) are never read outside the frozen phase of the SA
// run that set them: anneal resets them when the phase starts, so no
// threshold outlives its run, and none passes to another program, gauge
// or sampler sharing the scratch.
type Scratch struct {
	n     int      // spins in the last read-out
	out   []uint64 // read-out words (SA: working state; SQA: best replica)
	delta []float64
	dirty []uint64
	prev  []uint64 // SA state before the last hot sweep (see anneal)
	// thr holds each spin's certain-reject draw threshold in the frozen
	// phase of an SA run (see sweepFrozen); certain counts the visits of
	// the last run that a threshold decided.
	thr     []uint64
	certain int
	spins   []int8 // Spins() unpack buffer

	rep      []uint64 // SQA replica ring, slices×words
	repDelta []float64
	repDirty []uint64
	sched    []float64 // SQA per-sweep J⊥ schedule
}

// NewScratch returns an empty arena (buffers grow on first use).
func NewScratch() *Scratch { return &Scratch{} }

// grow ensures the arena holds the SA buffers for n spins.
func (sc *Scratch) grow(n int) {
	w := WordsFor(n)
	if cap(sc.out) < w {
		sc.out = make([]uint64, w)
		sc.prev = make([]uint64, w)
		sc.dirty = make([]uint64, w)
	}
	sc.out = sc.out[:w]
	sc.prev = sc.prev[:w]
	sc.dirty = sc.dirty[:w]
	if cap(sc.delta) < n {
		sc.delta = make([]float64, n)
		sc.thr = make([]uint64, n)
		sc.spins = make([]int8, n)
	}
	sc.delta = sc.delta[:n]
	sc.thr = sc.thr[:n]
	sc.spins = sc.spins[:n]
	sc.n = n
	sc.certain = 0
}

// growSQA additionally sizes the replica ring for p slices of n spins
// and an s-sweep schedule.
func (sc *Scratch) growSQA(n, p, sweeps int) {
	sc.grow(n)
	w := WordsFor(n)
	if cap(sc.rep) < p*w {
		sc.rep = make([]uint64, p*w)
		sc.repDirty = make([]uint64, p*w)
	}
	sc.rep = sc.rep[:p*w]
	sc.repDirty = sc.repDirty[:p*w]
	if cap(sc.repDelta) < p*n {
		sc.repDelta = make([]float64, p*n)
	}
	sc.repDelta = sc.repDelta[:p*n]
	if cap(sc.sched) < sweeps {
		sc.sched = make([]float64, sweeps)
	}
	sc.sched = sc.sched[:sweeps]
}

// Words returns the packed read-out of the last SampleInto: bit set ⇔
// spin −1. The view aliases the scratch (see the ownership contract).
func (sc *Scratch) Words() []uint64 { return sc.out }

// CertainRejects returns how many visits of the last run a
// certain-reject threshold decided (see sweepFrozen), out of the SA
// run's Sweeps·N (0 after an SQA run); tests read it to see how much of
// a run the fast path covers.
func (sc *Scratch) CertainRejects() int { return sc.certain }

// Spins unpacks the last read-out into the scratch's ±1 buffer and
// returns it. The view aliases the scratch (see the ownership contract).
func (sc *Scratch) Spins() []int8 {
	s := sc.spins[:sc.n]
	UnpackSpins(sc.out, s)
	return s
}

// markAllDirty invalidates every cached delta.
func markAllDirty(dirty []uint64) {
	for w := range dirty {
		dirty[w] = ^uint64(0)
	}
}

// sweep runs one Metropolis sweep over the packed state at inverse
// temperature beta, reusing cached deltas: an accepted flip updates its
// neighbours' deltas in place on grid and marks them dirty off grid.
// The rng stream and every accept decision are bit-identical to the
// naive FlipDelta-per-spin loop.
func (c *Compiled) sweep(rng *Rand, words []uint64, delta []float64, dirty []uint64, beta float64) {
	n := c.N
	if n == 0 {
		return
	}
	// Word-blocked traversal: indexing words/dirty by the block counter
	// lets the compiler drop their bounds checks on the hot loads. dirty
	// is re-read per spin, not snapshotted — an accepted flip may dirty a
	// later spin of the same word.
	delta = delta[:n]
	words = words[:WordsFor(n)]
	dirty = dirty[:len(words)]
	// The generator's read index lives in a local for the whole sweep,
	// so a draw is one load from the buffer (Rand.uniform63 inlined).
	buf := &rng.buf
	pos := rng.pos
	i := 0
	for iw := range words {
		ib := uint64(1)
		hi := i + 64
		if hi > n {
			hi = n
		}
		for ; i < hi; i, ib = i+1, ib<<1 {
			d := delta[i]
			if dirty[iw]&ib != 0 {
				d = -2 * spinSign(words, i) * c.packedLocalField(words, i)
				delta[i] = d
				dirty[iw] &^= ib
			}
			if d > 0 {
				var r uint64
				for {
					if pos >= rngLen {
						rng.refill()
						pos = 0
					}
					r = buf[pos] & rngMask
					pos++
					if r < redrawAt {
						break
					}
				}
				// Hand-inlined accept (metropolis.go): the bracket
				// decides nearly every draw without a call.
				x := beta * d
				m := bits.LeadingZeros64(r) & 63
				if x >= rejectAbove[m] {
					continue
				}
				if !(x <= acceptBelow[m]) && !acceptBand(float64(r)/(1<<63), x) {
					continue
				}
			}
			words[iw] ^= ib
			delta[i] = -d
			base := i * c.Stride
			deg := int(c.Deg[i])
			if c.OnGrid {
				// s_i before the flip, as a sign bit: its bit is now flipped.
				si := (^words[iw] >> (uint(i) & 63)) << 63
				for k := 0; k < deg; k++ {
					j := int(c.PNbr[base+k])
					sj := (words[j>>6] >> (uint(j) & 63)) << 63
					delta[j] += 4 * math.Float64frombits(c.PW[base+k]^si^sj)
				}
				continue
			}
			for k := 0; k < deg; k++ {
				j := int(c.PNbr[base+k])
				dirty[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	rng.pos = pos
}

// sweepFrozen is sweep for the frozen phase of a run, where nearly every
// visit ends in a rejected draw. When the bracket rejects spin i, thr[i]
// keeps the certain-reject threshold of its x (see certainReject) until
// i or a neighbor flips. While it holds, delta[i] is clean and positive,
// so the visit draws, and at any β no lower than the one that set it the
// bracket rejects every draw r with thr[i] ≤ r < redrawAt: such a visit
// is one load, one compare and pos++. Every other draw, r == 0 and
// those to be redrawn included, takes sweep's full test. A flat loop
// keeps the fast path's few live values in registers. It returns the
// number of visits that took the full test.
func (c *Compiled) sweepFrozen(rng *Rand, words []uint64, delta []float64, dirty, thr []uint64, beta float64) (full int) {
	n := c.N
	delta = delta[:n]
	thr = thr[:n]
	buf := &rng.buf
	pos := rng.pos
	for i := range thr {
		// The peek may refill before a draw is consumed; the stream
		// that follows is the same.
		if pos >= rngLen {
			rng.refill()
			pos = 0
		}
		r := buf[pos] & rngMask
		if r >= thr[i] && r < redrawAt {
			pos++
			continue
		}
		full++
		iw, ib := i>>6, uint64(1)<<(uint(i)&63)
		d := delta[i]
		if dirty[iw]&ib != 0 {
			d = -2 * spinSign(words, i) * c.packedLocalField(words, i)
			delta[i] = d
			dirty[iw] &^= ib
		}
		if d > 0 {
			// The draw is the peeked r, redrawn as in sweep.
			pos++
			for r >= redrawAt {
				if pos >= rngLen {
					rng.refill()
					pos = 0
				}
				r = buf[pos] & rngMask
				pos++
			}
			x := beta * d
			m := bits.LeadingZeros64(r) & 63
			if x >= rejectAbove[m] {
				thr[i] = certainReject(x)
				continue
			}
			if !(x <= acceptBelow[m]) && !acceptBand(float64(r)/(1<<63), x) {
				continue
			}
		}
		words[iw] ^= ib
		delta[i] = -d
		thr[i] = noThreshold
		base := i * c.Stride
		deg := int(c.Deg[i])
		if c.OnGrid {
			// s_i before the flip, as a sign bit: its bit is now flipped.
			si := (^words[iw] >> (uint(i) & 63)) << 63
			for k := 0; k < deg; k++ {
				j := int(c.PNbr[base+k])
				sj := (words[j>>6] >> (uint(j) & 63)) << 63
				delta[j] += 4 * math.Float64frombits(c.PW[base+k]^si^sj)
				thr[j] = noThreshold
			}
			continue
		}
		for k := 0; k < deg; k++ {
			j := int(c.PNbr[base+k])
			dirty[j>>6] |= 1 << (uint(j) & 63)
			thr[j] = noThreshold
		}
	}
	rng.pos = pos
	return full
}

// flips counts the spins that differ between two packed states.
func flips(a, b []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] ^ b[w])
	}
	return n
}

// anneal runs sa.Sweeps sweeps over sc.out at β = beta, beta·ratio, …
// A run starts in sweep and moves to sweepFrozen once a sweep flips
// fewer than N/16 spins with at least four sweeps left. The first
// frozen sweep sets every rejected spin's threshold and costs more than
// a plain sweep; the later ones repay it, and a run with fewer sweeps
// left, or a hot one, would not. A threshold holds only while β never
// falls, so a schedule whose ratio is below 1 or NaN, or whose start is
// zero or NaN, stays in sweep throughout.
func (sa *SimulatedAnnealer) anneal(c *Compiled, rng *Rand, sc *Scratch, beta, ratio float64) {
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
		if sa.Sweeps-sweep >= 4 && flips(sc.prev, sc.out) < freeze {
			break
		}
	}
	if sweep == sa.Sweeps {
		return
	}
	for i := range sc.thr {
		sc.thr[i] = noThreshold
	}
	for ; sweep < sa.Sweeps; sweep++ {
		sc.certain += c.N - c.sweepFrozen(rng, sc.out, sc.delta, sc.dirty, sc.thr, beta)
		beta *= ratio
	}
}

// SampleInto implements Sampler for SimulatedAnnealer, writing the
// read-out into sc (retrieve it with sc.Words or sc.Spins). It draws
// exactly the rng sequence of the naive reference sampler that
// internal/proptest retains. The start state is the uniform draw XOR
// gauge (nil: none), so a run on c equals a run on c's gauge transform
// from the plain draw, with the read-out already in c's frame (see
// Sampler).
func (sa *SimulatedAnnealer) SampleInto(c *Compiled, rng *Rand, sc *Scratch, gauge []uint64) {
	sc.grow(c.N)
	RandomSpinsInto(rng, c.N, sc.out)
	xorMask(sc.out, gauge)
	if sa.Sweeps <= 0 || c.N == 0 {
		return
	}
	ratio := 1.0
	if sa.Sweeps > 1 {
		ratio = math.Pow(sa.BetaEnd/sa.BetaStart, 1/float64(sa.Sweeps-1))
	}
	sa.anneal(c, rng, sc, sa.BetaStart, ratio)
}

// SampleWarmInto implements WarmSampler for SimulatedAnnealer: the run
// starts from the caller's packed spin state instead of a uniform draw,
// and the β schedule starts at the geometric midpoint √(BetaStart·BetaEnd)
// of the cold schedule — the cold schedule's hot opening phase exists to
// melt a random state and would scramble a warm one; the midpoint keeps
// enough thermal noise to escape shallow local minima around the incumbent
// while preserving its basin. No initial-state rng draws occur, so the rng
// sequence differs from SampleInto by construction (see WarmSampler).
func (sa *SimulatedAnnealer) SampleWarmInto(c *Compiled, rng *Rand, sc *Scratch, init []uint64) {
	sc.grow(c.N)
	copy(sc.out, init[:len(sc.out)])
	if sa.Sweeps <= 0 || c.N == 0 {
		return
	}
	betaStart := math.Sqrt(sa.BetaStart * sa.BetaEnd)
	if !(betaStart > 0) {
		betaStart = sa.BetaEnd
	}
	ratio := 1.0
	if sa.Sweeps > 1 && betaStart > 0 {
		ratio = math.Pow(sa.BetaEnd/betaStart, 1/float64(sa.Sweeps-1))
	}
	sa.anneal(c, rng, sc, betaStart, ratio)
}

// SampleInto implements Sampler for SQA, writing the best replica's
// read-out into sc. It draws exactly the rng sequence of the naive
// reference sampler that internal/proptest retains. Every replica
// starts from its uniform draw XOR gauge (nil: none).
func (q *SQA) SampleInto(c *Compiled, rng *Rand, sc *Scratch, gauge []uint64) {
	if c.N == 0 {
		sc.grow(0)
		return
	}
	p := q.Slices
	if p < 2 {
		p = 2
	}
	betaP := q.Beta / float64(p)
	sc.growSQA(c.N, p, q.Sweeps)
	q.schedule(sc, betaP)
	n, w := c.N, WordsFor(c.N)
	for k := 0; k < p; k++ {
		RandomSpinsInto(rng, n, sc.rep[k*w:(k+1)*w])
		xorMask(sc.rep[k*w:(k+1)*w], gauge)
	}
	markAllDirty(sc.repDirty)
	pf := float64(p)
	for sweep := 0; sweep < q.Sweeps; sweep++ {
		jp2 := 2 * sc.sched[sweep]
		for k := 0; k < p; k++ {
			up := sc.rep[((k+1)%p)*w:]
			down := sc.rep[((k-1+p)%p)*w:]
			cur := sc.rep[k*w:]
			delta := sc.repDelta[k*n:]
			dirty := sc.repDirty[k*w:]
			for i := 0; i < n; i++ {
				iw := i >> 6
				ib := uint64(1) << (uint(i) & 63)
				dfull := delta[i]
				if dirty[iw]&ib != 0 {
					dfull = -2 * spinSign(cur, i) * c.packedLocalField(cur, i)
					delta[i] = dfull
					dirty[iw] &^= ib
				}
				// Problem term is divided across slices; the replica
				// coupling is ferromagnetic between Trotter neighbors.
				// Identical op order to the naive loop: (2·J⊥)·s then
				// ·(up+down), each product an exact ±/zero scale.
				s := 1 - 2*float64((cur[iw]>>(uint(i)&63))&1)
				ud := float64(2 - 2*int(spinBit(up, i)+spinBit(down, i)))
				d := dfull/pf + jp2*s*ud
				if d > 0 && !accept(rng.uniform63(), q.Beta*d) {
					continue
				}
				cur[iw] ^= ib
				delta[i] = -dfull
				base := i * c.Stride
				deg := int(c.Deg[i])
				for kk := 0; kk < deg; kk++ {
					j := int(c.PNbr[base+kk])
					dirty[j>>6] |= 1 << (uint(j) & 63)
				}
			}
		}
	}
	// Read out the lowest-energy replica. PackedEnergy is bit-identical
	// to Energy on the unpacked spins, and the strict < keeps the
	// first-best tie-breaking of the historical scan. An incremental
	// energy per replica would be cheaper still, but its accumulated
	// roundings could pick a different replica within float tolerance
	// and break golden stability — the full scan is O(slices·edges)
	// once per read-out, off the sweep hot path.
	best := 0
	bestE := c.PackedEnergy(sc.rep[:w])
	for k := 1; k < p; k++ {
		if e := c.PackedEnergy(sc.rep[k*w : (k+1)*w]); e < bestE {
			bestE = e
			best = k
		}
	}
	copy(sc.out, sc.rep[best*w:(best+1)*w])
}

// schedule precomputes the per-sweep transverse-field coupling J⊥ =
// −(1/(2·βP))·ln(tanh(βP·Γ)) with Γ decreasing linearly from GammaStart
// to GammaEnd — hoisted out of the sweep×replica loops (the expressions
// are identical to the historical in-loop computation, value for value).
func (q *SQA) schedule(sc *Scratch, betaP float64) {
	for sweep := 0; sweep < q.Sweeps; sweep++ {
		frac := 0.0
		if q.Sweeps > 1 {
			frac = float64(sweep) / float64(q.Sweeps-1)
		}
		gamma := q.GammaStart + (q.GammaEnd-q.GammaStart)*frac
		sc.sched[sweep] = -0.5 / betaP * math.Log(math.Tanh(betaP*gamma))
	}
}

package anneal

import (
	"math"
	"math/bits"
)

// Metropolis acceptance without math.Exp on the hot path.
//
// The historical sampler decides every positive-delta move with
// u < math.Exp(−β·d) after drawing u = rng.Float64(), which is
// float64(r)/2⁶³ for a 63-bit integer draw r (redrawn while the
// quotient would round to 1.0). On paper-class programs 91–96% of spin
// visits end in a rejected draw, and almost every decision is far from
// the boundary: in the frozen late sweeps exp(−β·d) is orders of
// magnitude below u, and in the hot early sweeps it is within a few
// binary orders of 1. accept decides from r itself and returns the
// PROVABLY identical boolean:
//
//  1. Leading-zero bracket (a leading-zero count and a 64-entry table).
//     With m = LeadingZeros64(r), r ∈ [2^(63−m), 2^(64−m)), so
//     u ∈ [2^−m, 2^(1−m)] — closed above, because float64(r) may round
//     up to the next power of two. x ≥ m·ln2 + slack forces
//     exp(−x) < 2^−m ≤ u (reject), and x ≤ (m−1)·ln2 − slack forces
//     exp(−x) > 2^(1−m) ≥ u (accept). The 0.01 slack in x absorbs every
//     rounding involved (table entries, the β·d product, math.Exp's
//     ≤1-ulp error) with orders of magnitude to spare, because moving x
//     by 0.01 moves exp(−x) by a factor e^0.01 ≈ 1.01, vastly more than
//     any of them.
//  2. Guarded fast exp. Only a draw inside the bracket's band is
//     converted to u. expNeg approximates exp(−x) to ~4e−11 relative
//     error; u outside a ±1e−9 relative guard band around it decides
//     immediately.
//  3. math.Exp arbiter. Only a u inside the guard band — probability
//     ~2e−9 per draw — falls through to the exact historical
//     comparison. Correctness therefore never depends on expNeg's
//     error bound; only the fall-through rate does.
//
// r == 0 (probability 2⁻⁶³) has 64 leading zeros. The table index is
// taken mod 64, and slot 0, which no nonzero 63-bit draw reaches, holds
// +Inf/−Inf, so r == 0 skips the bracket and reaches the arbiter with
// u = 0.

const (
	// expGuard is the relative half-width of the fast-exp guard band.
	expGuard = 1e-9
	// log2of32e is 32/ln2, the table-index scale of expNeg.
	log2of32e = 46.16624130844683
	// ln2over32 is ln2/32, the argument-reduction step of expNeg.
	ln2over32 = 0.021660849392498290
)

// rejectAbove[m] (m = LeadingZeros64(r) mod 64, u ∈ [2^−m, 2^(1−m)]) is
// the x beyond which rejection is certain; acceptBelow[m] the x below
// which acceptance is.
var rejectAbove, acceptBelow [64]float64

// noThreshold marks a spin without a certain-reject threshold
// (sweepFrozen): no 63-bit draw reaches it.
const noThreshold = ^uint64(0)

// xCap is the bit pattern of 63.5·ln2, just above rejectAbove[63];
// certainReject clamps x to it.
var xCap = math.Float64bits(63.5 * math.Ln2)

// certainReject returns the draw threshold 2^(63−k) for the largest k in
// 1..63 with x ≥ rejectAbove[k]. A draw r with 2^(63−k) ≤ r < redrawAt
// has m = LeadingZeros64(r) in [1, k], so x ≥ rejectAbove[k] ≥
// rejectAbove[m] and the bracket rejects r at x and at every larger x.
// x must be one the bracket just rejected with a nonzero draw, so
// x ≥ rejectAbove[1] > 0 and its bits order like its value. The
// estimate ⌊min(x, 63.5·ln2)/ln2⌋ is that k or one more, because
// rejectAbove[k] lies 0.01 above k·ln2 and ln2 − 0.01 below
// (k+1)·ln2; one compare against the table settles it, branch-free.
func certainReject(x float64) uint64 {
	k := int(math.Float64frombits(min(math.Float64bits(x), xCap)) * (1 / math.Ln2))
	if x < rejectAbove[k&63] {
		k--
	}
	return 1 << ((63 - k) & 63)
}

// exp2neg[j] is 2^(−j/32), the reduction table of expNeg.
var exp2neg [32]float64

func init() {
	const ln2 = 0.6931471805599453
	rejectAbove[0] = math.Inf(1)
	acceptBelow[0] = math.Inf(-1)
	for m := 1; m < 64; m++ {
		rejectAbove[m] = float64(m)*ln2 + 0.01
		acceptBelow[m] = float64(m-1)*ln2 - 0.01
	}
	for j := range exp2neg {
		exp2neg[j] = math.Exp2(-float64(j) / 32)
	}
}

// expNeg approximates exp(−x) for x ∈ [0, 45] to ~4e−11 relative error:
// x = (32k+j)·ln2/32 + r with r ∈ [0, ln2/32), exp(−x) =
// 2^−k · 2^(−j/32) · e^−r, the last factor a degree-4 Taylor polynomial
// (remainder ≤ r⁵/120 ≈ 4e−11 at r = ln2/32).
func expNeg(x float64) float64 {
	n := int(x * log2of32e)
	r := x - float64(n)*ln2over32
	j := n & 31
	k := n >> 5
	p := 1 + r*(-1+r*(0.5+r*(-1.0/6+r*(1.0/24))))
	return exp2neg[j] * p * math.Float64frombits(uint64(1023-k)<<52)
}

// accept reports float64(r)/2⁶³ < math.Exp(−x) for x = β·d > 0 and a
// 63-bit draw r < redrawAt, bit-for-bit equal to evaluating that
// expression. SQA calls it; the SA sweep (kernel.go) carries a
// hand-inlined copy.
func accept(r uint64, x float64) bool {
	m := bits.LeadingZeros64(r) & 63
	if x >= rejectAbove[m] {
		return false
	}
	return x <= acceptBelow[m] || acceptBand(float64(r)/(1<<63), x)
}

// acceptBand decides draws inside the bracket's ambiguous band (or the
// 2⁻⁶³-probability u == 0) with the guarded fast exp, deferring to
// math.Exp only inside the guard band.
func acceptBand(u, x float64) bool {
	if u == 0 || x > 709 {
		// u == 0 has no bracket. Beyond x ≈ 709 exp(-x) leaves the
		// normal float64 range and expNeg's 2^-k scaling constant with
		// it; no nonzero draw reaches here with such an x (the bracket
		// rejects every x above 63·ln2), but keep the function total.
		return u < math.Exp(-x)
	}
	a := expNeg(x)
	if u < a*(1-expGuard) {
		return true
	}
	if u >= a*(1+expGuard) {
		return false
	}
	return u < math.Exp(-x)
}

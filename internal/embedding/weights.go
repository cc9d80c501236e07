package embedding

import (
	"fmt"
	"math"

	"repro/internal/qubo"
)

// DefaultEpsilon is the slack added above the chain-strength bound wB = U + ε.
const DefaultEpsilon = 0.25

// Physical is the result of the physical mapping: the logical energy
// formula expanded over physical qubits (Section 5). Its QUBO uses compact
// variable indices 0..N-1, one per consumed hardware qubit, so
// samplers never touch idle qubits. The chains get consecutive compact
// indices in variable order; a Physical keeps neither the embedding nor
// the hardware ids, which only the build reads.
type Physical struct {
	Logical *qubo.Problem
	// QUBO is the physical energy formula. For chain-consistent
	// assignments its energy equals the logical energy.
	QUBO *qubo.Problem
	// ChainStrength[v] is the ferromagnetic weight wB applied along the
	// chain of logical variable v, computed per Choi's per-chain bound.
	ChainStrength []float64
	// Epsilon is the slack above the chain-strength bound.
	Epsilon float64

	// chainOff[v]..chainOff[v+1] are the compact indices of the chain of
	// logical variable v; chainOff has one entry per variable plus one.
	chainOff []int
}

// PhysicalMap expands a logical QUBO over an embedding:
//
//  1. each linear weight w_i is split evenly over the |B_i| qubits of
//     variable i's chain,
//  2. each coupling w_ij is placed on one physical coupler joining the two
//     chains,
//  3. each chain receives ferromagnetic terms wB·(b_i + b_{i+1} − 2·b_i·b_{i+1})
//     along its path, with wB = U + ε where U bounds the energy increase
//     other terms can suffer when an inconsistent chain is forced
//     consistent (Choi's parameter-setting method as used in Section 5).
//
// It fails if the embedding cannot realize some logical coupling.
func PhysicalMap(e *Embedding, logical *qubo.Problem, epsilon float64) (*Physical, error) {
	return physicalMap(e, logical, epsilon, 0)
}

// PhysicalMapUniform is PhysicalMap with a single global chain strength
// instead of Choi's per-chain bound. It exists for the chain-strength
// ablation: a uniform strength must be at least the largest per-chain
// bound to be safe, inflating the weight range the annealer must resolve.
func PhysicalMapUniform(e *Embedding, logical *qubo.Problem, epsilon, strength float64) (*Physical, error) {
	if strength <= 0 {
		return nil, fmt.Errorf("embedding: uniform chain strength must be positive")
	}
	return physicalMap(e, logical, epsilon, strength)
}

func physicalMap(e *Embedding, logical *qubo.Problem, epsilon, uniform float64) (*Physical, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return nil, fmt.Errorf("embedding: epsilon must be positive and finite")
	}
	// The embedding's chains were checked when it was built, and the
	// coupling placement below fails on a missing coupler, so only the
	// chain count needs checking here.
	if logical.N() != len(e.Chains) {
		return nil, fmt.Errorf("embedding: %d chains for %d logical variables", len(e.Chains), logical.N())
	}
	p := &Physical{
		Logical:       logical,
		Epsilon:       epsilon,
		ChainStrength: make([]float64, logical.N()),
		chainOff:      make([]int, logical.N()+1),
	}
	// qubitPhys maps a hardware qubit id to its compact index. Only the
	// coupling placement below reads it, so the artifact does not keep it.
	qubitPhys := make([]int, e.Graph.NumQubits())
	next := 0
	for v, ch := range e.Chains {
		p.chainOff[v] = next
		for _, q := range ch {
			qubitPhys[q] = next
			next++
		}
	}
	p.chainOff[len(e.Chains)] = next
	p.QUBO = qubo.New(next)
	p.QUBO.Offset = logical.Offset

	// Step 1: distribute linear weights over chains.
	for v := 0; v < logical.N(); v++ {
		w := logical.Linear(v)
		if w == 0 {
			continue
		}
		lo, hi := p.ChainOf(v)
		share := w / float64(hi-lo)
		for i := lo; i < hi; i++ {
			p.QUBO.AddLinear(i, share)
		}
	}
	// Step 2: place each logical coupling on one physical coupler.
	for _, c := range logical.Couplings() {
		if c.W == 0 {
			continue
		}
		qa, qb, ok := e.CouplerBetween(c.I, c.J)
		if !ok {
			return nil, fmt.Errorf("embedding: no coupler for logical coupling (%d,%d)", c.I, c.J)
		}
		p.QUBO.AddQuadratic(qubitPhys[qa], qubitPhys[qb], c.W)
	}
	// Step 3: chain ferromagnetic terms. The strengths are computed from
	// the weights assigned in steps 1-2, before any chain terms exist, so
	// U sees exactly the couplings leaving the chain.
	for v := range p.ChainStrength {
		if uniform > 0 {
			p.ChainStrength[v] = uniform
		} else {
			p.ChainStrength[v] = p.chainBound(v) + epsilon
		}
	}
	for v, wB := range p.ChainStrength {
		lo, hi := p.ChainOf(v)
		for a := lo; a+1 < hi; a++ {
			p.QUBO.AddLinear(a, wB)
			p.QUBO.AddLinear(a+1, wB)
			p.QUBO.AddQuadratic(a, a+1, -2*wB)
		}
	}
	return p, nil
}

// chainBound computes U = min(Σ_b U1→0(b), Σ_b U0→1(b)) for the chain of
// logical variable v: the worst-case increase in non-chain energy terms
// when an inconsistent chain assignment is replaced by the better of the
// two consistent ones. U0→1(b) = w_b + Σ max(w_bi, 0) pessimistically
// assumes positively coupled neighbors are set and negatively coupled ones
// are clear; U1→0 is the analogue for clearing the chain. Negative bounds
// are clamped at zero so wB stays positive.
func (p *Physical) chainBound(v int) float64 {
	lo, hi := p.ChainOf(v)
	up, down := 0.0, 0.0
	for i := lo; i < hi; i++ {
		w := p.QUBO.Linear(i)
		u01 := w
		u10 := -w
		for _, t := range p.QUBO.Neighbors(i) {
			if lo <= t.Other && t.Other < hi {
				continue // a term inside the chain
			}
			if t.W > 0 {
				u01 += t.W
			} else {
				u10 += -t.W
			}
		}
		up += math.Max(u01, 0)
		down += math.Max(u10, 0)
	}
	return math.Min(up, down)
}

// ChainOf returns the compact physical indices of variable v's chain:
// the consecutive range [lo, hi).
func (p *Physical) ChainOf(v int) (lo, hi int) { return p.chainOff[v], p.chainOff[v+1] }

// numVariables returns the number of logical variables (chains).
func (p *Physical) numVariables() int { return len(p.chainOff) - 1 }

// numQubits returns the number of consumed physical qubits.
func (p *Physical) numQubits() int { return p.chainOff[len(p.chainOff)-1] }

// Unembed reads one logical value per chain from a physical assignment,
// using majority vote within each chain (ties resolve to the first
// qubit's value, matching a hardware read-out of the chain head).
func (p *Physical) Unembed(x []bool) []bool {
	return p.UnembedInto(x, make([]bool, p.numVariables()))
}

// UnembedInto is Unembed writing into the caller's buffer, which must
// hold one entry per logical variable; it returns out. Every entry is
// overwritten, so the buffer may be reused across read-outs.
func (p *Physical) UnembedInto(x, out []bool) []bool {
	if len(out) != p.numVariables() {
		panic("embedding: UnembedInto buffer size mismatch")
	}
	for v := range out {
		lo, hi := p.ChainOf(v)
		ones := 0
		for _, on := range x[lo:hi] {
			if on {
				ones++
			}
		}
		switch {
		case 2*ones > hi-lo:
			out[v] = true
		case 2*ones < hi-lo:
			out[v] = false
		default:
			out[v] = x[lo]
		}
	}
	return out
}

// Embed expands a logical assignment to a chain-consistent physical one.
func (p *Physical) Embed(logical []bool) []bool {
	x := make([]bool, p.numQubits())
	for v := 0; v < p.numVariables(); v++ {
		lo, hi := p.ChainOf(v)
		for i := lo; i < hi; i++ {
			x[i] = logical[v]
		}
	}
	return x
}

// BrokenChains counts chains whose qubits disagree in x, the diagnostic
// the paper's read-out procedure must repair.
func (p *Physical) BrokenChains(x []bool) int {
	n := 0
	for v := 0; v < p.numVariables(); v++ {
		lo, hi := p.ChainOf(v)
		for i := lo + 1; i < hi; i++ {
			if x[i] != x[lo] {
				n++
				break
			}
		}
	}
	return n
}

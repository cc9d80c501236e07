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
// variable indices 0..len(PhysQubits)-1, one per consumed hardware qubit,
// so samplers never touch idle qubits.
type Physical struct {
	Emb     *Embedding
	Logical *qubo.Problem
	// QUBO is the physical energy formula. For chain-consistent
	// assignments its energy equals the logical energy.
	QUBO *qubo.Problem
	// PhysQubits maps compact indices to hardware qubit ids.
	PhysQubits []int
	// ChainStrength[v] is the ferromagnetic weight wB applied along the
	// chain of logical variable v, computed per Choi's per-chain bound.
	ChainStrength []float64
	// Epsilon is the slack above the chain-strength bound.
	Epsilon float64

	chainIdx [][]int // logical var -> compact indices of its chain
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
	if err := e.Validate(logical); err != nil {
		return nil, err
	}
	p := &Physical{
		Emb:           e,
		Logical:       logical,
		Epsilon:       epsilon,
		ChainStrength: make([]float64, logical.N()),
		chainIdx:      make([][]int, logical.N()),
	}
	// qubitPhys maps a hardware qubit id to its compact index. Only the
	// coupling placement below reads it, so the artifact does not keep it.
	qubitPhys := make([]int, e.Graph.NumQubits())
	for v, ch := range e.Chains {
		idx := make([]int, len(ch))
		for i, q := range ch {
			idx[i] = len(p.PhysQubits)
			qubitPhys[q] = idx[i]
			p.PhysQubits = append(p.PhysQubits, q)
		}
		p.chainIdx[v] = idx
	}
	p.QUBO = qubo.New(len(p.PhysQubits))
	p.QUBO.Offset = logical.Offset

	// Step 1: distribute linear weights over chains.
	for v := 0; v < logical.N(); v++ {
		w := logical.Linear(v)
		if w == 0 {
			continue
		}
		share := w / float64(len(p.chainIdx[v]))
		for _, i := range p.chainIdx[v] {
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
	for v := range p.chainIdx {
		if uniform > 0 {
			p.ChainStrength[v] = uniform
		} else {
			p.ChainStrength[v] = p.chainBound(v) + epsilon
		}
	}
	for v, idx := range p.chainIdx {
		wB := p.ChainStrength[v]
		for i := 0; i+1 < len(idx); i++ {
			a, b := idx[i], idx[i+1]
			p.QUBO.AddLinear(a, wB)
			p.QUBO.AddLinear(b, wB)
			p.QUBO.AddQuadratic(a, b, -2*wB)
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
	inChain := make(map[int]bool, len(p.chainIdx[v]))
	for _, i := range p.chainIdx[v] {
		inChain[i] = true
	}
	up, down := 0.0, 0.0
	for _, i := range p.chainIdx[v] {
		w := p.QUBO.Linear(i)
		u01 := w
		u10 := -w
		for _, t := range p.QUBO.Neighbors(i) {
			if inChain[t.Other] {
				continue
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

// ChainOf returns the compact physical indices of variable v's chain.
func (p *Physical) ChainOf(v int) []int { return p.chainIdx[v] }

// Unembed reads one logical value per chain from a physical assignment,
// using majority vote within each chain (ties resolve to the first
// qubit's value, matching a hardware read-out of the chain head).
func (p *Physical) Unembed(x []bool) []bool {
	return p.UnembedInto(x, make([]bool, len(p.chainIdx)))
}

// UnembedInto is Unembed writing into the caller's buffer, which must
// hold one entry per logical variable; it returns out. Every entry is
// overwritten, so the buffer may be reused across read-outs.
func (p *Physical) UnembedInto(x, out []bool) []bool {
	if len(out) != len(p.chainIdx) {
		panic("embedding: UnembedInto buffer size mismatch")
	}
	for v, idx := range p.chainIdx {
		ones := 0
		for _, i := range idx {
			if x[i] {
				ones++
			}
		}
		switch {
		case 2*ones > len(idx):
			out[v] = true
		case 2*ones < len(idx):
			out[v] = false
		default:
			out[v] = x[idx[0]]
		}
	}
	return out
}

// Embed expands a logical assignment to a chain-consistent physical one.
func (p *Physical) Embed(logical []bool) []bool {
	x := make([]bool, len(p.PhysQubits))
	for v, idx := range p.chainIdx {
		for _, i := range idx {
			x[i] = logical[v]
		}
	}
	return x
}

// BrokenChains counts chains whose qubits disagree in x, the diagnostic
// the paper's read-out procedure must repair.
func (p *Physical) BrokenChains(x []bool) int {
	n := 0
	for _, idx := range p.chainIdx {
		for _, i := range idx[1:] {
			if x[i] != x[idx[0]] {
				n++
				break
			}
		}
	}
	return n
}

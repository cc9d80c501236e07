// Package embedding implements the paper's physical mapping (Section 5):
// the assignment of each logical QUBO variable to a chain of physical
// qubits on the hardware graph (any repro/internal/topology kind), the
// expansion of the logical energy formula into the physical one, and the
// inverse read-out of chain values.
//
// Three mapping patterns are provided. The TRIAD pattern (Choi, Figure 2)
// embeds a complete graph and therefore supports arbitrary QUBO problems at
// a quadratic qubit cost. The clustered pattern (Figure 3) embeds one
// small complete graph per query cluster and realizes only sparse
// couplings between clusters, trading generality for a qubit count that
// grows linearly in the number of clusters (Theorem 3). The greedy
// pattern grows complete-graph chains over raw adjacency, turning the
// denser Pegasus/Zephyr couplers into shorter chains.
package embedding

import (
	"fmt"
	"sort"

	"repro/internal/qubo"
	"repro/internal/topology"
)

// Chain is the ordered sequence of physical qubits representing one logical
// variable. Consecutive qubits must be joined by working couplers, so the
// chain forms a path in the hardware graph; the ferromagnetic terms
// E_B(i) = b_i + b_{i+1} − 2·b_i·b_{i+1} are laid along this path.
type Chain []int

// Embedding maps logical variables to qubit chains on a specific graph.
type Embedding struct {
	Graph topology.Graph
	// Chains[v] lists the qubits of logical variable v. Every variable
	// must have a non-empty chain.
	Chains []Chain

	qubitVar []int // qubit -> owning variable, or -1
}

// NewEmbedding wraps chains into an Embedding and builds the reverse index.
// It fails if chains overlap, touch broken qubits, or are not paths.
func NewEmbedding(g topology.Graph, chains []Chain) (*Embedding, error) {
	e := &Embedding{Graph: g, Chains: chains}
	e.qubitVar = make([]int, g.NumQubits())
	for i := range e.qubitVar {
		e.qubitVar[i] = -1
	}
	for v, ch := range chains {
		if len(ch) == 0 {
			return nil, fmt.Errorf("embedding: variable %d has an empty chain", v)
		}
		for _, q := range ch {
			if q < 0 || q >= g.NumQubits() {
				return nil, fmt.Errorf("embedding: variable %d uses qubit %d out of range", v, q)
			}
			if !g.Working(q) {
				return nil, fmt.Errorf("embedding: variable %d uses broken qubit %d", v, q)
			}
			if e.qubitVar[q] != -1 {
				return nil, fmt.Errorf("embedding: qubit %d shared by variables %d and %d", q, e.qubitVar[q], v)
			}
			e.qubitVar[q] = v
		}
		for i := 0; i+1 < len(ch); i++ {
			if !g.HasCoupler(ch[i], ch[i+1]) {
				return nil, fmt.Errorf("embedding: chain of variable %d breaks between qubits %d and %d", v, ch[i], ch[i+1])
			}
		}
	}
	return e, nil
}

// NumVariables returns the number of embedded logical variables.
func (e *Embedding) NumVariables() int { return len(e.Chains) }

// NumQubits returns the total number of physical qubits consumed.
func (e *Embedding) NumQubits() int {
	n := 0
	for _, ch := range e.Chains {
		n += len(ch)
	}
	return n
}

// VariableOf returns the logical variable represented by qubit q, or -1.
func (e *Embedding) VariableOf(q int) int { return e.qubitVar[q] }

// CouplerBetween returns one working physical coupler (a, b) with a in the
// chain of u and b in the chain of v, or ok=false when the chains are not
// adjacent in the hardware graph. Logical couplings w_uv are placed on this
// coupler during the physical mapping.
func (e *Embedding) CouplerBetween(u, v int) (a, b int, ok bool) {
	if u == v {
		return 0, 0, false
	}
	for _, qa := range e.Chains[u] {
		for _, n := range e.Graph.Neighbors(qa) {
			if e.qubitVar[n] == v {
				return qa, n, true
			}
		}
	}
	return 0, 0, false
}

// CanCouple reports whether the chains of u and v share at least one
// working coupler.
func (e *Embedding) CanCouple(u, v int) bool {
	_, _, ok := e.CouplerBetween(u, v)
	return ok
}

// Validate checks that the embedding realizes every quadratic term of the
// logical problem: one chain per variable, and for each nonzero coupling
// (i, j) the chains of i and j adjacent. It also re-checks every chain
// against the reverse index NewEmbedding built, allocating nothing: each
// qubit still working and owned by its chain's variable, and
// consecutive qubits still coupled.
func (e *Embedding) Validate(logical *qubo.Problem) error {
	if logical.N() != len(e.Chains) {
		return fmt.Errorf("embedding: %d chains for %d logical variables", len(e.Chains), logical.N())
	}
	for v, ch := range e.Chains {
		if len(ch) == 0 {
			return fmt.Errorf("embedding: variable %d has an empty chain", v)
		}
		for k, q := range ch {
			if q < 0 || q >= len(e.qubitVar) || e.qubitVar[q] != v {
				return fmt.Errorf("embedding: qubit %d of variable %d's chain is not indexed to it", q, v)
			}
			if !e.Graph.Working(q) {
				return fmt.Errorf("embedding: variable %d uses broken qubit %d", v, q)
			}
			if k > 0 && !e.Graph.HasCoupler(ch[k-1], q) {
				return fmt.Errorf("embedding: chain of variable %d breaks between qubits %d and %d", v, ch[k-1], q)
			}
		}
	}
	for i := 0; i < logical.N(); i++ {
		for _, t := range logical.Neighbors(i) {
			if t.Other > i && t.W != 0 && !e.CanCouple(i, t.Other) {
				return fmt.Errorf("embedding: logical coupling (%d,%d) has no physical coupler", i, t.Other)
			}
		}
	}
	return nil
}

// MaxChainLength returns the length of the longest chain.
func (e *Embedding) MaxChainLength() int {
	m := 0
	for _, ch := range e.Chains {
		if len(ch) > m {
			m = len(ch)
		}
	}
	return m
}

// QubitsPerVariable returns the average number of physical qubits per
// logical variable, the x-axis of Figure 6.
func (e *Embedding) QubitsPerVariable() float64 {
	if len(e.Chains) == 0 {
		return 0
	}
	return float64(e.NumQubits()) / float64(len(e.Chains))
}

// UsedQubits returns the sorted list of all consumed qubits.
func (e *Embedding) UsedQubits() []int {
	var out []int
	for _, ch := range e.Chains {
		out = append(out, ch...)
	}
	sort.Ints(out)
	return out
}

// Package qubo models quadratic unconstrained binary optimization (QUBO)
// problems, the input formalism of the D-Wave quantum annealer (Section 3
// of the paper): minimize Σ_{i≤j} w_ij·x_i·x_j over x ∈ {0,1}^n.
//
// The package stores weights sparsely, supports incremental energy deltas
// for local-search samplers, and provides exact solvers for verification of
// the logical and physical mappings on small instances.
package qubo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Problem is a QUBO instance over n binary variables. Linear weights w_ii
// are stored densely; quadratic weights w_ij (i<j) sparsely as adjacency
// rows, which every read of a coupling goes through.
type Problem struct {
	n      int
	linear []float64
	adj    [][]Term // adj[i] holds terms (j, w_ij) with j != i
	// quad indexes the couplings by canonical pair so that AddQuadratic
	// finds a repeated pair in O(1). Only the build reads it, and Freeze
	// drops it.
	quad   map[[2]int]float64
	frozen bool
	// Offset is a constant added to every energy value. Mappings that
	// complete squares or translate from Ising use it so that reported
	// energies stay comparable.
	Offset float64
}

// Term is one quadratic interaction partner: variable Other with weight W.
type Term struct {
	Other int
	W     float64
}

// New creates an empty QUBO problem over n variables.
func New(n int) *Problem {
	if n < 0 {
		panic("qubo: negative variable count")
	}
	return &Problem{
		n:      n,
		linear: make([]float64, n),
		quad:   make(map[[2]int]float64),
		adj:    make([][]Term, n),
	}
}

// N returns the number of variables.
func (p *Problem) N() int { return p.n }

// AddLinear adds w to the linear weight of variable i (the w_ii term; for
// binary variables x_i² = x_i).
func (p *Problem) AddLinear(i int, w float64) {
	p.checkFrozen()
	p.checkVar(i)
	p.linear[i] += w
}

// AddQuadratic adds w to the coupling weight between distinct variables i
// and j. Repeated calls accumulate.
func (p *Problem) AddQuadratic(i, j int, w float64) {
	p.checkFrozen()
	p.checkVar(i)
	p.checkVar(j)
	if i == j {
		p.linear[i] += w
		return
	}
	if i > j {
		i, j = j, i
	}
	key := [2]int{i, j}
	old, existed := p.quad[key]
	p.quad[key] = old + w
	if existed {
		p.updateAdj(i, j, old+w)
		p.updateAdj(j, i, old+w)
	} else {
		p.adj[i] = append(p.adj[i], Term{Other: j, W: old + w})
		p.adj[j] = append(p.adj[j], Term{Other: i, W: old + w})
	}
}

func (p *Problem) updateAdj(i, j int, w float64) {
	for k := range p.adj[i] {
		if p.adj[i][k].Other == j {
			p.adj[i][k].W = w
			return
		}
	}
}

func (p *Problem) checkVar(i int) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("qubo: variable %d out of range [0,%d)", i, p.n))
	}
}

// Linear returns the linear weight of variable i.
func (p *Problem) Linear(i int) float64 { return p.linear[i] }

// Quadratic returns the coupling weight between i and j (0 if absent),
// found by scanning the shorter of the two rows.
func (p *Problem) Quadratic(i, j int) float64 {
	if i == j {
		return p.linear[i]
	}
	if len(p.adj[j]) < len(p.adj[i]) {
		i, j = j, i
	}
	for _, t := range p.adj[i] {
		if t.Other == j {
			return t.W
		}
	}
	return 0
}

// Neighbors returns the quadratic terms incident to variable i. The slice
// is shared; callers must not modify it.
func (p *Problem) Neighbors(i int) []Term { return p.adj[i] }

// NumQuadratic returns the number of distinct couplings stored,
// zero-weight entries created by cancellation included.
func (p *Problem) NumQuadratic() int { return numPairs(p.adj) }

// numPairs counts the distinct pairs of symmetric adjacency rows.
func numPairs(adj [][]Term) int {
	terms := 0
	for _, row := range adj {
		terms += len(row)
	}
	return terms / 2
}

// Couplings returns all stored couplings sorted by (i, j). Zero-weight
// entries created by cancellation are included; callers that care should
// filter on W.
func (p *Problem) Couplings() []Coupling { return RowCouplings(p.adj) }

// RowCouplings returns the couplings of symmetric adjacency rows sorted
// by (i, j): row i contributes its terms with Other > i, sorted by
// Other. It is the one enumeration behind the Couplings of this package
// and of internal/ising.
func RowCouplings(adj [][]Term) []Coupling {
	out := make([]Coupling, 0, numPairs(adj))
	for i, row := range adj {
		start := len(out)
		for _, t := range row {
			if t.Other > i {
				out = append(out, Coupling{I: i, J: t.Other, W: t.W})
			}
		}
		slices.SortFunc(out[start:], func(a, b Coupling) int { return cmp.Compare(a.J, b.J) })
	}
	return out
}

// Coupling is one quadratic term w_ij·x_i·x_j with I < J.
type Coupling struct {
	I, J int
	W    float64
}

// Energy evaluates Σ_{i≤j} w_ij·x_i·x_j + Offset for assignment x.
func (p *Problem) Energy(x []bool) float64 {
	if len(x) != p.n {
		panic(fmt.Sprintf("qubo: assignment length %d != %d variables", len(x), p.n))
	}
	e := p.Offset
	for i, on := range x {
		if !on {
			continue
		}
		e += p.linear[i]
		for _, t := range p.adj[i] {
			if t.Other > i && x[t.Other] {
				e += t.W
			}
		}
	}
	return e
}

// FlipDelta returns the energy change from flipping variable i in x.
// Local-search samplers use it to avoid full re-evaluation.
func (p *Problem) FlipDelta(x []bool, i int) float64 {
	d := p.linear[i]
	for _, t := range p.adj[i] {
		if x[t.Other] {
			d += t.W
		}
	}
	if x[i] {
		return -d
	}
	return d
}

// MaxAbsWeight returns the largest |w| over linear and quadratic terms,
// used when scaling to hardware weight ranges.
func (p *Problem) MaxAbsWeight() float64 {
	m := 0.0
	for _, w := range p.linear {
		if a := math.Abs(w); a > m {
			m = a
		}
	}
	for _, row := range p.adj {
		for _, t := range row {
			if a := math.Abs(t.W); a > m {
				m = a
			}
		}
	}
	return m
}

// Clone returns a deep copy of the problem. The copy is always mutable,
// even when p is frozen — cloning is the supported way to derive a
// variant of a cached formula. Its pair index is rebuilt from the rows.
func (p *Problem) Clone() *Problem {
	c := New(p.n)
	c.Offset = p.Offset
	copy(c.linear, p.linear)
	for i, row := range p.adj {
		c.adj[i] = append([]Term(nil), row...)
		for _, t := range row {
			if t.Other > i {
				c.quad[[2]int{i, t.Other}] = t.W
			}
		}
	}
	return c
}

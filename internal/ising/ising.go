// Package ising models Ising spin problems, the native formalism of the
// D-Wave hardware: minimize Σ_i h_i·s_i + Σ_{i<j} J_ij·s_i·s_j over spins
// s ∈ {−1,+1}^n. It converts to and from QUBO form (the formalism used by
// the paper's mappings). The gauge transformations of Section 7.1 are
// drawn per batch by internal/dwave as packed masks.
package ising

import (
	"fmt"

	"repro/internal/qubo"
)

// Problem is an Ising instance: fields h, couplings J, and a constant
// Offset so energies remain comparable across transformations.
type Problem struct {
	n      int
	h      []float64
	j      map[[2]int]float64
	adj    [][]qubo.Term
	Offset float64
}

// New creates an empty Ising problem over n spins.
func New(n int) *Problem {
	if n < 0 {
		panic("ising: negative spin count")
	}
	return &Problem{
		n:   n,
		h:   make([]float64, n),
		j:   make(map[[2]int]float64),
		adj: make([][]qubo.Term, n),
	}
}

// N returns the number of spins.
func (p *Problem) N() int { return p.n }

// AddField adds w to the local field h_i.
func (p *Problem) AddField(i int, w float64) {
	p.check(i)
	p.h[i] += w
}

// AddCoupling adds w to the coupling J_ij between distinct spins.
func (p *Problem) AddCoupling(i, j int, w float64) {
	p.check(i)
	p.check(j)
	if i == j {
		panic("ising: self-coupling (s_i² = 1 is a constant; fold into Offset)")
	}
	if i > j {
		i, j = j, i
	}
	key := [2]int{i, j}
	old, existed := p.j[key]
	p.j[key] = old + w
	if existed {
		p.updateAdj(i, j, old+w)
		p.updateAdj(j, i, old+w)
	} else {
		p.adj[i] = append(p.adj[i], qubo.Term{Other: j, W: old + w})
		p.adj[j] = append(p.adj[j], qubo.Term{Other: i, W: old + w})
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

func (p *Problem) check(i int) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("ising: spin %d out of range [0,%d)", i, p.n))
	}
}

// Field returns h_i.
func (p *Problem) Field(i int) float64 { return p.h[i] }

// Coupling returns J_ij (0 if absent).
func (p *Problem) Coupling(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return p.j[[2]int{i, j}]
}

// Neighbors returns the couplings incident to spin i; shared slice.
func (p *Problem) Neighbors(i int) []qubo.Term { return p.adj[i] }

// Couplings returns all couplings sorted by (i, j).
func (p *Problem) Couplings() []qubo.Coupling { return qubo.RowCouplings(p.adj) }

// Energy evaluates the Hamiltonian for spins s (entries must be ±1).
func (p *Problem) Energy(s []int8) float64 {
	if len(s) != p.n {
		panic(fmt.Sprintf("ising: assignment length %d != %d spins", len(s), p.n))
	}
	e := p.Offset
	for i, si := range s {
		e += p.h[i] * float64(si)
		for _, t := range p.adj[i] {
			if t.Other > i {
				e += t.W * float64(si) * float64(s[t.Other])
			}
		}
	}
	return e
}

// FlipDelta returns the energy change from flipping spin i.
func (p *Problem) FlipDelta(s []int8, i int) float64 {
	local := p.h[i]
	for _, t := range p.adj[i] {
		local += t.W * float64(s[t.Other])
	}
	return -2 * float64(s[i]) * local
}

// FromQUBO converts a QUBO problem into Ising form via x = (1+s)/2.
// Energies are preserved exactly, including the offset.
func FromQUBO(q *qubo.Problem) *Problem {
	p := New(q.N())
	p.Offset = q.Offset
	for i := 0; i < q.N(); i++ {
		w := q.Linear(i)
		p.h[i] += w / 2
		p.Offset += w / 2
	}
	for _, c := range q.Couplings() {
		// w·x_i·x_j = w/4·(1 + s_i + s_j + s_i·s_j)
		p.AddCoupling(c.I, c.J, c.W/4)
		p.h[c.I] += c.W / 4
		p.h[c.J] += c.W / 4
		p.Offset += c.W / 4
	}
	return p
}

// ToQUBO converts back to QUBO form via s = 2x − 1, preserving energies.
func (p *Problem) ToQUBO() *qubo.Problem {
	q := qubo.New(p.n)
	q.Offset = p.Offset
	for i, h := range p.h {
		// h·s = h·(2x − 1)
		q.AddLinear(i, 2*h)
		q.Offset -= h
	}
	for _, c := range p.Couplings() {
		// J·s_i·s_j = J·(4·x_i·x_j − 2·x_i − 2·x_j + 1)
		q.AddQuadratic(c.I, c.J, 4*c.W)
		q.AddLinear(c.I, -2*c.W)
		q.AddLinear(c.J, -2*c.W)
		q.Offset += c.W
	}
	return q
}

// SpinsToBits maps ±1 spins to binary values via x = (1+s)/2.
func SpinsToBits(s []int8) []bool {
	x := make([]bool, len(s))
	for i, si := range s {
		x[i] = si == 1
	}
	return x
}

// BitsToSpins maps binary values to ±1 spins via s = 2x − 1.
func BitsToSpins(x []bool) []int8 {
	s := make([]int8, len(x))
	for i, on := range x {
		if on {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

package qubo

import (
	"errors"
	"math"
)

// ErrTooLarge reports that an exact QUBO solver was invoked beyond its
// safety bound.
var ErrTooLarge = errors.New("qubo: instance too large for exact solver")

// SolveExhaustive enumerates all 2^n assignments (n ≤ maxVars, default 24)
// and returns a minimizer with its energy. Used to verify the logical and
// physical mappings (Theorem 1) on small instances.
func (p *Problem) SolveExhaustive(maxVars int) ([]bool, float64, error) {
	if maxVars <= 0 {
		maxVars = 24
	}
	if p.n > maxVars {
		return nil, 0, ErrTooLarge
	}
	best := make([]bool, p.n)
	bestE := math.Inf(1)
	x := make([]bool, p.n)
	// Gray-code enumeration with incremental deltas: each step flips one
	// variable, so evaluation is O(deg) instead of O(n + |quad|).
	e := p.Energy(x)
	if e < bestE {
		bestE = e
		copy(best, x)
	}
	total := uint64(1) << uint(p.n)
	for k := uint64(1); k < total; k++ {
		// The bit flipped between Gray codes of k-1 and k is trailing-zeros(k).
		i := trailingZeros(k)
		e += p.FlipDelta(x, i)
		x[i] = !x[i]
		if e < bestE {
			bestE = e
			copy(best, x)
		}
	}
	return best, bestE, nil
}

func trailingZeros(k uint64) int {
	n := 0
	for k&1 == 0 {
		k >>= 1
		n++
	}
	return n
}

// LowerBound returns a cheap lower bound on the minimal energy: the sum of
// all negative linear weights plus all negative couplings plus the offset.
// Exact solvers use it for sanity checks and branch-and-bound seeds.
func (p *Problem) LowerBound() float64 {
	lb := p.Offset
	for _, w := range p.linear {
		if w < 0 {
			lb += w
		}
	}
	for i, row := range p.adj {
		for _, t := range row {
			if t.Other > i && t.W < 0 {
				lb += t.W
			}
		}
	}
	return lb
}

// GreedyDescent performs steepest-descent bit flips from x until no flip
// improves the energy, mutating x. It returns the final energy. This is the
// classical post-processing step applied to annealer read-outs.
func (p *Problem) GreedyDescent(x []bool) float64 {
	for {
		bestI := -1
		bestD := -1e-12 // require strict improvement beyond noise
		for i := 0; i < p.n; i++ {
			if d := p.FlipDelta(x, i); d < bestD {
				bestD = d
				bestI = i
			}
		}
		if bestI < 0 {
			return p.Energy(x)
		}
		x[bestI] = !x[bestI]
	}
}

// FirstImprovementDescent sweeps over the variables flipping any strictly
// improving bit until a full sweep finds none (or maxSweeps is exhausted),
// mutating x. It is the cheap post-processing variant used on annealer
// read-outs with broken chains: O(n·deg) per sweep instead of the
// steepest-descent O(n·deg) per single flip.
func (p *Problem) FirstImprovementDescent(x []bool, maxSweeps int) {
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for i := 0; i < p.n; i++ {
			if p.FlipDelta(x, i) < -1e-12 {
				x[i] = !x[i]
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

package solvers

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/trace"
)

// BranchAndBound is the stand-in for the paper's LIN-MQO baseline: an
// exact anytime solver on the direct MQO model, structured like a
// commercial integer-programming code: a diving heuristic produces the
// first incumbent, a solution-polishing phase (the analogue of CPLEX's
// RINS/polish heuristics) improves it by re-optimizing random windows of
// queries exactly, and a depth-first branch-and-bound tree proves
// optimality with an admissible combinatorial bound. The tests
// cross-validate it against exhaustive enumeration on small instances.
type BranchAndBound struct {
	// Label overrides the reported name; defaults to "LIN-MQO".
	Label string
	// DisablePolish skips the solution-polishing phase (ablation).
	DisablePolish bool
	// PolishFraction is the budget share spent polishing before the
	// proof phase (default 0.5).
	PolishFraction float64
}

// Name implements Solver.
func (b *BranchAndBound) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "LIN-MQO"
}

// Solve implements Solver. It returns the proven optimum when the budget
// allows exhausting the tree.
func (b *BranchAndBound) Solve(ctx context.Context, p *mqo.Problem, budget time.Duration, rng *rand.Rand, tr *trace.Trace) mqo.Solution {
	ctx = orBackground(ctx)
	clock := trace.NewWallClock()
	in := newIncumbent(p, tr, clock)
	nq := p.NumQueries()

	// suffix[q] lower-bounds the cost of queries q..n−1. Every saving is
	// attributed to its later query, so each query contributes at least
	// its cheapest plan after discounting, per earlier query, the largest
	// single saving reachable there (only one plan per earlier query can
	// be selected). This attribution makes the bound admissible: a pair's
	// saving is counted exactly once, at the later endpoint, and at no
	// more than its true value.
	suffix := make([]float64, nq+1)
	for q := nq - 1; q >= 0; q-- {
		minMarg := math.Inf(1)
		for _, pl := range p.QueryPlans[q] {
			m := p.Costs[pl]
			bestPerQuery := map[int]float64{}
			for _, sv := range p.SavingsOf(pl) {
				other := sv.P1
				if other == pl {
					other = sv.P2
				}
				oq := p.QueryOf(other)
				if oq < q && sv.Value > bestPerQuery[oq] {
					bestPerQuery[oq] = sv.Value
				}
			}
			for _, v := range bestPerQuery {
				m -= v
			}
			if m < minMarg {
				minMarg = m
			}
		}
		suffix[q] = suffix[q+1] + minMarg
	}

	sol := make(mqo.Solution, nq)
	selected := make([]bool, p.NumPlans())
	deadlineHit := false

	// marginal is the exact cost delta of adding plan pl to the current
	// partial selection.
	marginal := func(pl int) float64 {
		d := p.Costs[pl]
		for _, sv := range p.SavingsOf(pl) {
			other := sv.P1
			if other == pl {
				other = sv.P2
			}
			if selected[other] {
				d -= sv.Value
			}
		}
		return d
	}

	// Phase 1+2: diving heuristic and solution polishing.
	if !b.DisablePolish {
		frac := b.PolishFraction
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		b.polish(ctx, p, in, clock, time.Duration(float64(budget)*frac), rng)
	}

	// Phase 3: branch-and-bound proof.
	checkEvery := 0
	var rec func(q int, costSoFar float64)
	rec = func(q int, costSoFar float64) {
		if deadlineHit {
			return
		}
		checkEvery++
		if checkEvery&1023 == 0 && (clock.Elapsed() > budget || ctx.Err() != nil) {
			deadlineHit = true
			return
		}
		if q == nq {
			in.offer(sol, costSoFar)
			return
		}
		if costSoFar+suffix[q] >= in.cost-1e-9 && in.has {
			return
		}
		// Order plans by exact marginal cost so the dive finds good
		// incumbents early (mirrors an IP solver's rounding heuristics).
		plans := p.QueryPlans[q]
		type cand struct {
			pl int
			d  float64
		}
		cands := make([]cand, len(plans))
		for i, pl := range plans {
			cands[i] = cand{pl, marginal(pl)}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		for _, c := range cands {
			sol[q] = c.pl
			selected[c.pl] = true
			rec(q+1, costSoFar+c.d)
			selected[c.pl] = false
			if deadlineHit {
				return
			}
		}
	}
	rec(0, 0)
	if !in.has && ctx.Err() == nil {
		// Budget too small to reach a leaf: fall back to greedy.
		g := GreedySolution(p)
		in.offer(g, p.CostOfSet(g))
	}
	return in.solution()
}

// polish runs the diving + window-reoptimization heuristic phase: starting
// from the greedy solution, it repeatedly picks a random window of
// consecutive queries and re-optimizes their plan choices exactly against
// the fixed remainder, recording every improvement. Windows of width up to
// four keep the enumeration cheap while covering the local defects greedy
// dives leave on chain-structured instances.
func (b *BranchAndBound) polish(ctx context.Context, p *mqo.Problem, in *incumbent, clock trace.Clock, until time.Duration, rng *rand.Rand) {
	nq := p.NumQueries()
	sol := GreedySolution(p)
	cost := p.CostOfSet(sol)
	in.offer(sol, cost)
	selected := make([]bool, p.NumPlans())
	for _, pl := range sol {
		selected[pl] = true
	}
	marginal := func(pl int) float64 {
		d := p.Costs[pl]
		for _, sv := range p.SavingsOf(pl) {
			other := sv.P1
			if other == pl {
				other = sv.P2
			}
			if selected[other] {
				d -= sv.Value
			}
		}
		return d
	}
	// Window width adapts to the per-query plan count so the exhaustive
	// window enumeration stays around a thousand combinations: two-plan
	// queries admit windows of ten queries, five-plan queries windows of
	// four.
	maxL := 0
	for _, plans := range p.QueryPlans {
		if len(plans) > maxL {
			maxL = len(plans)
		}
	}
	maxW := 2
	for combos := maxL * maxL; maxW < 10 && combos*maxL <= 1024; maxW++ {
		combos *= maxL
	}
	if maxW > nq {
		maxW = nq
	}
	stall := 0
	kicks := 0
	// Stop when improvements dry up even across perturbation kicks; the
	// proof phase takes over then.
	maxStall := 32 * (nq + 1)
	maxKicks := 24
	for clock.Elapsed() < until && kicks < maxKicks && ctx.Err() == nil {
		if stall >= maxStall {
			// Iterated local search: perturb a few queries at random and
			// continue polishing from there. Only improvements are ever
			// offered to the incumbent, so kicks cannot lose progress.
			kicks++
			stall = 0
			for k := 0; k < 3; k++ {
				q := rng.Intn(nq)
				plans := p.QueryPlans[q]
				selected[sol[q]] = false
				sol[q] = plans[rng.Intn(len(plans))]
				selected[sol[q]] = true
			}
			cost = p.CostOfSet(sol)
		}
		w := 1 + rng.Intn(maxW)
		q0 := rng.Intn(nq - w + 1)
		// Unassign the window.
		for q := q0; q < q0+w; q++ {
			selected[sol[q]] = false
			cost -= marginal(sol[q])
		}
		// Exhaustively re-optimize the window against the fixed rest.
		bestCombo := make([]int, w)
		for i := range bestCombo {
			bestCombo[i] = sol[q0+i]
		}
		bestDelta := math.Inf(1)
		combo := make([]int, w)
		var walk func(i int, delta float64)
		walk = func(i int, delta float64) {
			if i == w {
				if delta < bestDelta {
					bestDelta = delta
					copy(bestCombo, combo)
				}
				return
			}
			for _, pl := range p.QueryPlans[q0+i] {
				combo[i] = pl
				m := marginal(pl)
				selected[pl] = true
				walk(i+1, delta+m)
				selected[pl] = false
			}
		}
		walk(0, 0)
		improved := false
		for i, pl := range bestCombo {
			if sol[q0+i] != pl {
				improved = true
			}
			sol[q0+i] = pl
			selected[pl] = true
		}
		// Recompute exactly rather than accumulating deltas: cheap at
		// O(plans + savings) per accepted window and immune to drift.
		cost = p.CostOfSet(sol)
		if improved {
			stall = 0
			in.offer(sol, cost)
		} else {
			stall++
		}
	}
}

// QUBOBranchAndBound is the stand-in for the paper's LIN-QUB baseline: the
// same exact search applied to the QUBO reformulation of the instance
// (obtained via the logical mapping). As in the paper, working on the
// reformulation enlarges the search space — the QUBO admits invalid
// selections — and the solver is correspondingly slower than LIN-MQO.
type QUBOBranchAndBound struct{}

// Name implements Solver.
func (QUBOBranchAndBound) Name() string { return "LIN-QUB" }

// Solve implements Solver.
func (QUBOBranchAndBound) Solve(ctx context.Context, p *mqo.Problem, budget time.Duration, rng *rand.Rand, tr *trace.Trace) mqo.Solution {
	ctx = orBackground(ctx)
	clock := trace.NewWallClock()
	in := newIncumbent(p, tr, clock)
	mapping := logical.Map(p)
	q := mapping.QUBO
	n := q.N()

	// Static per-variable bound: setting variable i can contribute at
	// least its linear weight plus all negative couplings.
	negPotential := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		pot := q.Linear(i)
		for _, t := range q.Neighbors(i) {
			if t.W < 0 {
				pot += t.W
			}
		}
		negPotential[i] = negPotential[i+1] + math.Min(0, pot)
	}

	x := make([]bool, n)
	bestE := math.Inf(1)
	deadlineHit := false
	steps := 0
	var rec func(i int, energy float64)
	rec = func(i int, energy float64) {
		if deadlineHit {
			return
		}
		steps++
		if steps&1023 == 0 && (clock.Elapsed() > budget || ctx.Err() != nil) {
			deadlineHit = true
			return
		}
		if energy+negPotential[i] >= bestE-1e-9 {
			return
		}
		if i == n {
			bestE = energy
			sol, valid := mapping.DecodeStrict(x)
			if !valid {
				return // penalty weights make this unreachable at optimum
			}
			cost, err := p.Cost(sol)
			if err == nil {
				in.offer(sol, cost)
			}
			return
		}
		// Try setting the variable first when its assigned-side delta is
		// negative (diving heuristic), else try clearing first.
		delta := q.Linear(i)
		for _, t := range q.Neighbors(i) {
			if t.Other < i && x[t.Other] {
				delta += t.W
			}
		}
		if delta < 0 {
			x[i] = true
			rec(i+1, energy+delta)
			x[i] = false
			rec(i+1, energy)
		} else {
			x[i] = false
			rec(i+1, energy)
			if deadlineHit {
				return
			}
			x[i] = true
			rec(i+1, energy+delta)
			x[i] = false
		}
	}
	rec(0, q.Offset)
	if !in.has && ctx.Err() == nil {
		g := GreedySolution(p)
		in.offer(g, p.CostOfSet(g))
	}
	return in.solution()
}

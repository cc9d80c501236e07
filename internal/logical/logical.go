// Package logical implements the paper's logical mapping (Section 4): the
// transformation of an MQO problem instance into a QUBO energy formula
//
//	E = wL·EL + wM·EM + EC + ES
//
// over one binary variable X_p per query plan p, where
//
//	EL = −Σ_p X_p                      (select at least one plan per query)
//	EM = Σ_q Σ_{{p1,p2}⊆P_q} X_p1·X_p2 (select at most one plan per query)
//	EC = Σ_p c_p·X_p                   (execution cost)
//	ES = −Σ_{{p1,p2}} s_{p1,p2}·X_p1·X_p2 (shared-work savings)
//
// with penalty weights wL > max_p c_p and
// wM > wL + max_{p1} Σ_{p2} s_{p1,p2}, each set to its bound plus a small
// ε (the paper and this implementation default to ε = 0.25). Theorem 1
// proves the QUBO minimum encodes the optimal MQO solution; the tests in
// this package verify that property against exhaustive solvers.
package logical

import (
	"math"

	"repro/internal/mqo"
	"repro/internal/qubo"
)

// DefaultEpsilon is the ε slack added on top of each penalty-weight lower
// bound ("we typically use ε = 0.25 in our implementation").
const DefaultEpsilon = 0.25

// Mapping ties a QUBO formula to the MQO instance it encodes, retaining
// everything needed to invert solutions (LogicalMapping⁻¹ in Algorithm 1).
type Mapping struct {
	Problem *mqo.Problem
	QUBO    *qubo.Problem
	// WL and WM are the global penalty weights chosen for EL and EM
	// (for per-query mappings they hold the maxima, for reference).
	WL, WM float64
	// WLByQuery and WMByQuery are set by MapPerQuery: the per-query
	// penalty weights actually applied.
	WLByQuery, WMByQuery []float64
	// Epsilon is the slack used above the weight lower bounds.
	Epsilon float64
}

// Map transforms an MQO problem into its QUBO representation with the
// default ε.
func Map(p *mqo.Problem) *Mapping { return MapEpsilon(p, DefaultEpsilon) }

// MapEpsilon transforms an MQO problem using the given ε > 0. Weights are
// chosen as low as their correctness bounds allow, since large weight
// ranges increase the chance of sub-optimal annealer read-outs
// (Section 4).
func MapEpsilon(p *mqo.Problem, epsilon float64) *Mapping {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		panic("logical: epsilon must be positive and finite")
	}
	wL := p.MaxCost() + epsilon
	wM := wL + p.MaxSavingsOfAnyPlan() + epsilon

	q := qubo.New(p.NumPlans())
	// wL·EL: −wL on each plan variable.
	for pl := 0; pl < p.NumPlans(); pl++ {
		q.AddLinear(pl, -wL)
	}
	// wM·EM: +wM between every pair of alternative plans for a query.
	for _, plans := range p.QueryPlans {
		for i := 0; i < len(plans); i++ {
			for j := i + 1; j < len(plans); j++ {
				q.AddQuadratic(plans[i], plans[j], wM)
			}
		}
	}
	// EC: +c_p on each plan variable.
	for pl, c := range p.Costs {
		q.AddLinear(pl, c)
	}
	// ES: −s_{p1,p2} between sharing plans.
	for _, s := range p.Savings {
		q.AddQuadratic(s.P1, s.P2, -s.Value)
	}
	return &Mapping{Problem: p, QUBO: q, WL: wL, WM: wM, Epsilon: epsilon}
}

// Decode inverts the logical mapping: it turns a QUBO variable assignment
// into an MQO solution. Assignments that violate the one-plan-per-query
// constraint (possible for noisy annealer read-outs) are repaired: excess
// selections keep the cheapest plan and missing selections greedily pick
// the best marginal plan.
func (m *Mapping) Decode(x []bool) mqo.Solution {
	return m.Problem.Repair(m.Problem.SolutionFromVector(x))
}

// DecodeStrict inverts the mapping without repair; the boolean reports
// whether the assignment was a valid MQO solution.
func (m *Mapping) DecodeStrict(x []bool) (mqo.Solution, bool) {
	s := m.Problem.SolutionFromVector(x)
	if !m.Problem.Valid(s) {
		return s, false
	}
	// Valid per-query choice, but the vector may still have set several
	// plans for one query; reject those too.
	n := 0
	for _, on := range x {
		if on {
			n++
		}
	}
	return s, n == m.Problem.NumQueries()
}

// Encode maps an MQO solution to its QUBO assignment (X_p = 1 iff p
// selected).
func (m *Mapping) Encode(s mqo.Solution) []bool {
	return m.Problem.SelectionVector(s)
}

// EnergyOf returns the QUBO energy of an MQO solution. For valid solutions
// Theorem 1 gives Energy = C(Pe) − |Q|·wL, so energies of valid solutions
// differ from costs only by a constant.
func (m *Mapping) EnergyOf(s mqo.Solution) float64 {
	return m.QUBO.Energy(m.Encode(s))
}

// ConstantShift returns Σ_q wL_q, the constant offset between QUBO
// energies of valid solutions and their MQO cost:
// C(Pe) = Energy + Σ_q wL_q (which is |Q|·wL for the global mapping).
func (m *Mapping) ConstantShift() float64 {
	if m.WLByQuery != nil {
		s := 0.0
		for _, w := range m.WLByQuery {
			s += w
		}
		return s
	}
	return float64(m.Problem.NumQueries()) * m.WL
}

// MapPerQuery transforms an MQO problem using per-query penalty weights
// instead of the paper's global ones: wL_q > max_{p∈P_q} c_p and
// wM_q > wL_q + max_{p1∈P_q} Σ_{p2} s_{p1,p2}. The correctness proofs of
// Lemmata 1-2 only need these weights to dominate the respective query's
// own costs and savings, so per-query weights preserve Theorem 1 while
// shrinking the weight range the annealer's limited analog precision must
// resolve — the paper's stated reason to "choose the weights as low as
// possible".
func MapPerQuery(p *mqo.Problem) *Mapping { return MapPerQueryEpsilon(p, DefaultEpsilon) }

// MapPerQueryEpsilon is MapPerQuery with an explicit ε > 0.
func MapPerQueryEpsilon(p *mqo.Problem, epsilon float64) *Mapping {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		panic("logical: epsilon must be positive and finite")
	}
	nq := p.NumQueries()
	wL := make([]float64, nq)
	wM := make([]float64, nq)
	for q, plans := range p.QueryPlans {
		maxCost, maxSave := 0.0, 0.0
		for _, pl := range plans {
			if c := p.Costs[pl]; c > maxCost {
				maxCost = c
			}
			sum := 0.0
			for _, sv := range p.SavingsOf(pl) {
				sum += sv.Value
			}
			if sum > maxSave {
				maxSave = sum
			}
		}
		wL[q] = maxCost + epsilon
		wM[q] = wL[q] + maxSave + epsilon
	}
	q := qubo.New(p.NumPlans())
	for pl := 0; pl < p.NumPlans(); pl++ {
		q.AddLinear(pl, p.Costs[pl]-wL[p.QueryOf(pl)])
	}
	for qi, plans := range p.QueryPlans {
		for i := 0; i < len(plans); i++ {
			for j := i + 1; j < len(plans); j++ {
				q.AddQuadratic(plans[i], plans[j], wM[qi])
			}
		}
	}
	for _, s := range p.Savings {
		q.AddQuadratic(s.P1, s.P2, -s.Value)
	}
	m := &Mapping{Problem: p, QUBO: q, Epsilon: epsilon, WLByQuery: wL, WMByQuery: wM}
	for _, w := range wL {
		if w > m.WL {
			m.WL = w
		}
	}
	for _, w := range wM {
		if w > m.WM {
			m.WM = w
		}
	}
	return m
}

// CostFromEnergy converts a QUBO energy of a valid assignment into the
// corresponding MQO execution cost.
func (m *Mapping) CostFromEnergy(e float64) float64 {
	return e + m.ConstantShift()
}

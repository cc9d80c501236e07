package mqo

import (
	"fmt"
	"math/rand"
)

// Class describes one of the paper's test-case classes (Section 7.1): a
// number of queries, a number of alternative plans per query, and the
// density of work-sharing opportunities between neighboring queries.
type Class struct {
	Queries       int
	PlansPerQuery int
}

// PaperClasses are the four classes evaluated in Section 7: the maximal
// number of queries representable on 1097 working qubits for two to five
// plans per query.
var PaperClasses = []Class{
	{Queries: 537, PlansPerQuery: 2},
	{Queries: 253, PlansPerQuery: 3},
	{Queries: 140, PlansPerQuery: 4},
	{Queries: 108, PlansPerQuery: 5},
}

// String renders the class in the paper's style, e.g. "537 queries, 2 plans".
func (c Class) String() string {
	return fmt.Sprintf("%d queries, %d plans", c.Queries, c.PlansPerQuery)
}

// GeneratorConfig controls synthetic workload generation. The defaults
// mirror Section 7.1: each query forms its own cluster, cost savings are
// drawn uniformly from {1, 2} scaled by a constant, and savings only link
// plans of layout-adjacent queries so that the instance maps well to the
// quantum annealer's sparse connectivity.
type GeneratorConfig struct {
	// CostMin and CostMax bound per-plan execution costs, drawn uniformly
	// from the integer range [CostMin, CostMax].
	CostMin, CostMax int
	// SavingsScale multiplies the uniform {1,2} savings draw (the paper's
	// "scaled by a constant").
	SavingsScale float64
	// InterPairs is the number of plan pairs between each pair of
	// consecutive queries that receive a savings link. It is capped at
	// the number of available couplers in the clustered embedding.
	InterPairs int
}

// DefaultGeneratorConfig returns the configuration used by the experiment
// harness: integer costs in [10, 30], savings in {5, 10}, and two sharing
// links between consecutive queries.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{CostMin: 10, CostMax: 30, SavingsScale: 5, InterPairs: 2}
}

// Generate builds a random instance of the given class. Instances are
// chain-structured: savings link only plans of consecutive queries, which
// matches the paper's requirement that test cases map well onto the
// clustered Chimera embedding ("Each query forms one cluster").
func Generate(rng *rand.Rand, class Class, cfg GeneratorConfig) *Problem {
	if class.Queries <= 0 || class.PlansPerQuery <= 0 {
		panic(fmt.Sprintf("mqo: invalid class %+v", class))
	}
	if cfg.CostMax < cfg.CostMin {
		panic("mqo: CostMax < CostMin")
	}
	nPlans := class.Queries * class.PlansPerQuery
	queryPlans := make([][]int, class.Queries)
	costs := make([]float64, nPlans)
	next := 0
	for q := 0; q < class.Queries; q++ {
		plans := make([]int, class.PlansPerQuery)
		for i := range plans {
			plans[i] = next
			costs[next] = float64(cfg.CostMin + rng.Intn(cfg.CostMax-cfg.CostMin+1))
			next++
		}
		queryPlans[q] = plans
	}

	pairs := cfg.InterPairs
	if pairs > class.PlansPerQuery {
		pairs = class.PlansPerQuery
	}
	var savings []Saving
	seen := map[[2]int]bool{}
	for q := 0; q+1 < class.Queries; q++ {
		for k := 0; k < pairs; k++ {
			// Retry a few times to avoid duplicate pairs; with small plan
			// counts collisions are common.
			for attempt := 0; attempt < 8; attempt++ {
				a := queryPlans[q][rng.Intn(class.PlansPerQuery)]
				b := queryPlans[q+1][rng.Intn(class.PlansPerQuery)]
				key := [2]int{a, b}
				if seen[key] {
					continue
				}
				seen[key] = true
				value := cfg.SavingsScale * float64(1+rng.Intn(2))
				savings = append(savings, Saving{P1: a, P2: b, Value: value})
				break
			}
		}
	}

	p, err := New(queryPlans, costs, savings)
	if err != nil {
		panic(fmt.Sprintf("mqo: generator produced invalid instance: %v", err))
	}
	return p
}

// RandomSolution returns a uniformly random valid solution, used to seed
// randomized solvers.
func (p *Problem) RandomSolution(rng *rand.Rand) Solution {
	s := make(Solution, p.NumQueries())
	for q, plans := range p.QueryPlans {
		s[q] = plans[rng.Intn(len(plans))]
	}
	return s
}

package proptest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/portfolio"
)

// iterations per property; each iteration reseeds from its index so a
// failure report like "iter 17" reproduces deterministically.
const iterations = 300

// tol absorbs float association drift across the mapping chain.
const tol = 1e-6

// TestPropLogicalEnergyMatchesCost is the round-trip invariant of
// Theorem 1: for every valid solution of every instance, the QUBO energy
// of its encoding equals the MQO plan cost minus the constant shift —
// under both the paper's global penalty weights and the per-query
// variant.
func TestPropLogicalEnergyMatchesCost(t *testing.T) {
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		p := RandomProblem(rng)
		sol := RandomSolution(rng, p)
		cost, err := p.Cost(sol)
		if err != nil {
			t.Fatalf("iter %d: random solution invalid: %v", iter, err)
		}
		for name, m := range map[string]*logical.Mapping{
			"global":    logical.Map(p),
			"per-query": logical.MapPerQuery(p),
		} {
			if got := m.CostFromEnergy(m.EnergyOf(sol)); math.Abs(got-cost) > tol {
				t.Errorf("iter %d (%s): energy round-trip cost %v, want %v", iter, name, got, cost)
			}
		}
	}
}

// TestPropEncodeDecodeRoundTrip: decoding the encoding of a valid
// solution returns that solution, strictly and after repair.
func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		p := RandomProblem(rng)
		sol := RandomSolution(rng, p)
		m := logical.Map(p)
		x := m.Encode(sol)
		if got, ok := m.DecodeStrict(x); !ok || !reflect.DeepEqual(got, sol) {
			t.Errorf("iter %d: DecodeStrict(Encode(s)) = %v (ok=%v), want %v", iter, got, ok, sol)
		}
		if got := m.Decode(x); !reflect.DeepEqual(got, sol) {
			t.Errorf("iter %d: Decode(Encode(s)) = %v, want %v", iter, got, sol)
		}
	}
}

// TestPropRepairProducesValid: Repair turns any representable state into
// a valid solution without touching already-valid entries.
func TestPropRepairProducesValid(t *testing.T) {
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		p := RandomProblem(rng)
		s := RandomPartialSolution(rng, p)
		kept := append([]int(nil), s...)
		repaired := p.Repair(s)
		if !p.Valid(repaired) {
			t.Fatalf("iter %d: Repair produced invalid solution %v", iter, repaired)
		}
		for q, pl := range kept {
			if pl >= 0 && pl < p.NumPlans() && p.QueryOf(pl) == q && repaired[q] != pl {
				t.Errorf("iter %d: Repair replaced valid choice %d of query %d with %d",
					iter, pl, q, repaired[q])
			}
		}
	}
}

// TestPropQUBOIsingEnergyPreserved: converting the logical QUBO to Ising
// form and back preserves the energy of every assignment exactly (up to
// float association), including the constant offsets.
func TestPropQUBOIsingEnergyPreserved(t *testing.T) {
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		p := RandomProblem(rng)
		q := logical.Map(p).QUBO
		is := ising.FromQUBO(q)
		back := is.ToQUBO()
		x := RandomAssignment(rng, q.N())
		eQ := q.Energy(x)
		eI := is.Energy(ising.BitsToSpins(x))
		eB := back.Energy(x)
		if math.Abs(eQ-eI) > tol {
			t.Errorf("iter %d: QUBO energy %v != Ising energy %v", iter, eQ, eI)
		}
		if math.Abs(eQ-eB) > tol {
			t.Errorf("iter %d: QUBO→Ising→QUBO energy %v != %v", iter, eB, eQ)
		}
	}
}

// TestPropGaugeInvariance: a random spin-reversal transformation of the
// compiled program leaves the energy of corresponding states unchanged,
// and the packed form of the gauged state is the original state XOR the
// packed gauge mask — the XOR the samplers apply to their start state.
func TestPropGaugeInvariance(t *testing.T) {
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		p := RandomProblem(rng)
		is := ising.FromQUBO(logical.Map(p).QUBO)
		mask := randomMask(rng, is.N())
		gauged := gaugeProgram(anneal.Compile(is), mask)
		spins := ising.BitsToSpins(RandomAssignment(rng, is.N()))
		// The gauged program evaluated at the gauged spins must equal the
		// original problem at the original spins.
		gaugedSpins := make([]int8, len(spins))
		for i, s := range spins {
			if mask[i>>6]>>(uint(i)&63)&1 == 1 {
				gaugedSpins[i] = -s
			} else {
				gaugedSpins[i] = s
			}
		}
		words := anneal.WordsFor(is.N())
		packed, want := make([]uint64, words), make([]uint64, words)
		anneal.PackSpins(gaugedSpins, packed)
		anneal.PackSpins(spins, want)
		if e0, e1 := is.Energy(spins), gauged.PackedEnergy(packed); math.Abs(e0-e1) > tol {
			t.Errorf("iter %d: gauge changed energy %v -> %v", iter, e0, e1)
		}
		if !reflect.DeepEqual(xorWords(packed, mask), want) {
			t.Errorf("iter %d: packed gauge undo mismatch", iter)
		}
	}
}

// TestPropMergeIsPointwiseMinimum: the portfolio merge law — at every
// instant, the merged incumbent cost equals the minimum over the member
// traces' incumbents at that instant, and the merged stream is strictly
// decreasing in cost and nondecreasing in time.
func TestPropMergeIsPointwiseMinimum(t *testing.T) {
	bestAt := func(entries []portfolio.Entry, at time.Duration) float64 {
		best := math.Inf(1)
		for _, e := range entries {
			if e.T <= at && e.Cost < best {
				best = e.Cost
			}
		}
		return best
	}
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		members := make([][]portfolio.Entry, 1+rng.Intn(4))
		for m := range members {
			tt := time.Duration(0)
			cost := 100 + rng.Float64()*100
			for n := rng.Intn(8); len(members[m]) < n; {
				tt += time.Duration(rng.Intn(1000)) * time.Microsecond
				cost -= rng.Float64() * 20
				members[m] = append(members[m], portfolio.Entry{T: tt, Cost: cost, Source: "m"})
			}
		}
		merged := portfolio.Merge(members)
		for i := 1; i < len(merged); i++ {
			if merged[i].Cost >= merged[i-1].Cost {
				t.Fatalf("iter %d: merged stream not strictly decreasing: %v", iter, merged)
			}
			if merged[i].T < merged[i-1].T {
				t.Fatalf("iter %d: merged stream goes back in time: %v", iter, merged)
			}
		}
		var checkpoints []time.Duration
		for _, tr := range members {
			for _, e := range tr {
				checkpoints = append(checkpoints, e.T)
			}
		}
		checkpoints = append(checkpoints, 0, time.Second)
		for _, cp := range checkpoints {
			want := math.Inf(1)
			for _, tr := range members {
				if v := bestAt(tr, cp); v < want {
					want = v
				}
			}
			if got := bestAt(merged, cp); got != want {
				t.Fatalf("iter %d: merged best at %v = %v, want pointwise min %v", iter, cp, got, want)
			}
		}
	}
}

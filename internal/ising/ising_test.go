package ising

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/qubo"
)

func randomQUBO(rng *rand.Rand, n int) *qubo.Problem {
	q := qubo.New(n)
	q.Offset = rng.NormFloat64()
	for i := 0; i < n; i++ {
		q.AddLinear(i, rng.NormFloat64()*3)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				q.AddQuadratic(i, j, rng.NormFloat64()*3)
			}
		}
	}
	return q
}

func randomSpins(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		if rng.Intn(2) == 1 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

func TestFromQUBOPreservesEnergy(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		q := randomQUBO(rng, n)
		p := FromQUBO(q)
		s := randomSpins(rng, n)
		x := SpinsToBits(s)
		return math.Abs(q.Energy(x)-p.Energy(s)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestToQUBORoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		q := randomQUBO(rng, n)
		back := FromQUBO(q).ToQUBO()
		x := make([]bool, n)
		for i := range x {
			x[i] = rng.Intn(2) == 1
		}
		return math.Abs(q.Energy(x)-back.Energy(x)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlipDeltaMatchesEnergyDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		p := FromQUBO(randomQUBO(rng, n))
		s := randomSpins(rng, n)
		i := rng.Intn(n)
		before := p.Energy(s)
		d := p.FlipDelta(s, i)
		s[i] = -s[i]
		after := p.Energy(s)
		if math.Abs((after-before)-d) > 1e-9 {
			t.Fatalf("trial %d: FlipDelta %v != energy difference %v", trial, d, after-before)
		}
	}
}

func TestSpinBitConversions(t *testing.T) {
	s := []int8{1, -1, 1}
	x := SpinsToBits(s)
	if !x[0] || x[1] || !x[2] {
		t.Errorf("SpinsToBits(%v) = %v", s, x)
	}
	back := BitsToSpins(x)
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("BitsToSpins round trip failed at %d", i)
		}
	}
}

func TestSelfCouplingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self-coupling")
		}
	}()
	New(2).AddCoupling(1, 1, 1)
}

// TestFromQUBORowsAscending: FromQUBO adds the QUBO's distinct
// couplings in (i, j) order, so each lands at the end of both its rows:
// every row lists its neighbours in ascending order, each pair once with
// w/4 on both sides, which is the order the kernel program sums in. And
// Couplings enumerates exactly the QUBO's pairs in (i, j) order.
func TestFromQUBORowsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(14)
		q := randomQUBO(rng, n)
		p := FromQUBO(q)
		for i := 0; i < n; i++ {
			row := p.Neighbors(i)
			for k, term := range row {
				if k > 0 && row[k-1].Other >= term.Other {
					t.Fatalf("trial %d: row %d is not strictly ascending: %v", trial, i, row)
				}
				if want := q.Quadratic(i, term.Other) / 4; term.W != want || p.Coupling(term.Other, i) != want {
					t.Fatalf("trial %d: J(%d,%d) = %v, want %v on both rows", trial, i, term.Other, term.W, want)
				}
			}
		}
		cs := p.Couplings()
		qc := q.Couplings()
		if len(cs) != len(qc) {
			t.Fatalf("trial %d: %d couplings, the QUBO has %d", trial, len(cs), len(qc))
		}
		for k, c := range cs {
			if c.I != qc[k].I || c.J != qc[k].J || c.W != qc[k].W/4 {
				t.Fatalf("trial %d: coupling %d = %+v, want (%d,%d) %v", trial, k, c, qc[k].I, qc[k].J, qc[k].W/4)
			}
		}
	}
}

// TestAddCouplingAccumulates: a repeated pair, in either argument
// order, adds to the one term on each of its two rows.
func TestAddCouplingAccumulates(t *testing.T) {
	p := New(4)
	p.AddCoupling(0, 1, 1)
	p.AddCoupling(0, 2, 0.5)
	p.AddCoupling(3, 0, -1)
	p.AddCoupling(1, 0, 2)
	p.AddCoupling(0, 3, 0.25)
	if got := p.Coupling(0, 1); got != 3 {
		t.Errorf("J(0,1) = %v, want 3", got)
	}
	if got := p.Coupling(3, 0); got != -0.75 {
		t.Errorf("J(0,3) = %v, want -0.75", got)
	}
	if got := p.Coupling(1, 2); got != 0 {
		t.Errorf("absent J(1,2) = %v, want 0", got)
	}
	if d0, d1 := len(p.Neighbors(0)), len(p.Neighbors(1)); d0 != 3 || d1 != 1 {
		t.Errorf("row lengths %d and %d, want 3 and 1: a repeated pair was appended again", d0, d1)
	}
	want := []qubo.Coupling{{I: 0, J: 1, W: 3}, {I: 0, J: 2, W: 0.5}, {I: 0, J: 3, W: -0.75}}
	if got := p.Couplings(); !slices.Equal(got, want) {
		t.Errorf("Couplings = %v, want %v", got, want)
	}
}

package ising

import (
	"math"
	"math/rand"
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

package anneal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ising"
	"repro/internal/qubo"
)

func randomIsing(rng *rand.Rand, n int, density float64) *ising.Problem {
	p := ising.New(n)
	for i := 0; i < n; i++ {
		p.AddField(i, rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				p.AddCoupling(i, j, rng.NormFloat64())
			}
		}
	}
	return p
}

// TestCompiledEnergyMatchesIsing: the packed program's energy equals
// the Ising problem's bit for bit, because its rows keep the problem's
// row order.
func TestCompiledEnergyMatchesIsing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		p := randomIsing(rng, n, 0.5)
		p.Offset = rng.NormFloat64()
		c := Compile(p)
		s := RandomSpins(rng, n)
		words := make([]uint64, WordsFor(n))
		PackSpins(s, words)
		if got, want := c.PackedEnergy(words), p.Energy(s); got != want {
			t.Fatalf("trial %d: compiled energy %v != ising energy %v", trial, got, want)
		}
	}
}

func TestCompiledFlipDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		p := randomIsing(rng, n, 0.5)
		c := Compile(p)
		s := RandomSpins(rng, n)
		words := make([]uint64, WordsFor(n))
		PackSpins(s, words)
		i := rng.Intn(n)
		before := p.Energy(s)
		d := c.PackedFlipDelta(words, i)
		s[i] = -s[i]
		if got := p.Energy(s) - before; math.Abs(got-d) > 1e-9 {
			t.Fatalf("trial %d: FlipDelta %v != true delta %v", trial, d, got)
		}
	}
}

// sample runs one anneal on a private scratch and returns a copy of
// the read-out.
func sample(s Sampler, c *Compiled, rng *Rand) []int8 {
	var sc Scratch
	s.SampleInto(c, rng, &sc, nil)
	return append([]int8(nil), sc.Spins()...)
}

// exhaustiveGround finds the true ground energy of a small Ising problem.
func exhaustiveGround(p *ising.Problem) float64 {
	q := p.ToQUBO()
	_, e, err := q.SolveExhaustive(0)
	if err != nil {
		panic(err)
	}
	return e
}

func TestSAFindsGroundStateSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draws := NewRand(3)
	sa := DefaultSA()
	for trial := 0; trial < 10; trial++ {
		p := randomIsing(rng, 10, 0.5)
		c := Compile(p)
		want := exhaustiveGround(p)
		best := math.Inf(1)
		for run := 0; run < 30; run++ {
			s := sample(sa, c, draws)
			if e := p.Energy(s); e < best {
				best = e
			}
		}
		if best > want+1e-6 {
			t.Errorf("trial %d: SA best %v, ground %v", trial, best, want)
		}
	}
}

func TestSQAFindsGroundStateSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	draws := NewRand(4)
	sq := DefaultSQA()
	for trial := 0; trial < 5; trial++ {
		p := randomIsing(rng, 10, 0.5)
		c := Compile(p)
		want := exhaustiveGround(p)
		best := math.Inf(1)
		for run := 0; run < 20; run++ {
			s := sample(sq, c, draws)
			if e := p.Energy(s); e < best {
				best = e
			}
		}
		if best > want+1e-6 {
			t.Errorf("trial %d: SQA best %v, ground %v", trial, best, want)
		}
	}
}

func TestSamplersDeterministicGivenSeed(t *testing.T) {
	p := randomIsing(rand.New(rand.NewSource(5)), 20, 0.3)
	c := Compile(p)
	for _, s := range []Sampler{DefaultSA(), DefaultSQA()} {
		a := sample(s, c, NewRand(9))
		b := sample(s, c, NewRand(9))
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: same seed produced different spins", s.Name())
				break
			}
		}
	}
}

func TestSampleReturnsValidSpins(t *testing.T) {
	c := Compile(randomIsing(rand.New(rand.NewSource(6)), 15, 0.4))
	for _, s := range []Sampler{DefaultSA(), DefaultSQA()} {
		out := sample(s, c, NewRand(6))
		if len(out) != 15 {
			t.Fatalf("%s returned %d spins, want 15", s.Name(), len(out))
		}
		for i, v := range out {
			if v != 1 && v != -1 {
				t.Fatalf("%s spin %d = %d, want ±1", s.Name(), i, v)
			}
		}
	}
}

func TestSAZeroSweepsIsRandom(t *testing.T) {
	c := Compile(randomIsing(rand.New(rand.NewSource(7)), 8, 0.5))
	sa := &SimulatedAnnealer{Sweeps: 0}
	out := sample(sa, c, NewRand(7))
	if len(out) != 8 {
		t.Fatalf("got %d spins", len(out))
	}
}

func TestSamplerNames(t *testing.T) {
	if DefaultSA().Name() != "SA" || DefaultSQA().Name() != "SQA" {
		t.Error("sampler names changed")
	}
}

// TestSAOnFrustratedChain checks SA on a problem with a known structure:
// an antiferromagnetic ring of odd length is frustrated; the ground state
// violates exactly one bond.
func TestSAOnFrustratedChain(t *testing.T) {
	n := 5
	p := ising.New(n)
	for i := 0; i < n; i++ {
		p.AddCoupling(i, (i+1)%n, 1) // antiferromagnetic
	}
	c := Compile(p)
	rng := NewRand(8)
	sa := DefaultSA()
	best := math.Inf(1)
	for run := 0; run < 50; run++ {
		if e := p.Energy(sample(sa, c, rng)); e < best {
			best = e
		}
	}
	if best != float64(-n+2) {
		t.Errorf("frustrated ring ground energy = %v, want %d", best, -n+2)
	}
}

// quboToIsingGround sanity check used by the SQA replica selection:
// returned energy must match the energy of the returned spins.
func TestSQAReturnsBestReplica(t *testing.T) {
	rng := NewRand(9)
	q := qubo.New(6)
	for i := 0; i < 6; i++ {
		q.AddLinear(i, -1)
	}
	p := ising.FromQUBO(q)
	c := Compile(p)
	sq := DefaultSQA()
	s := sample(sq, c, rng)
	// Ground state: all bits one (all spins +1), energy -6.
	if e := p.Energy(s); e > -6+1e-9 {
		t.Errorf("SQA energy %v on trivial problem, want -6", e)
	}
}

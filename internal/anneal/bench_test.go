package anneal_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/ising"
	"repro/internal/topology"
)

// topoProgram compiles a random Ising program spanning the full hardware
// graph of the given topology: one field per qubit and one coupling per
// physical coupler, all drawn uniformly from [-1, 1). This is the shape
// the solver pipeline hands the kernel (sparse, degree-bounded), so the
// sweep benchmarks below measure the padded-neighbor layout on realistic
// adjacency rather than on dense random graphs.
func topoProgram(tb testing.TB, kind string, rows, cols int) *anneal.Compiled {
	tb.Helper()
	g, err := topology.New(kind, rows, cols)
	if err != nil {
		tb.Fatalf("topology.New(%s, %d, %d): %v", kind, rows, cols, err)
	}
	n := g.NumQubits()
	rng := rand.New(rand.NewSource(7))
	p := ising.New(n)
	for q := 0; q < n; q++ {
		p.AddField(q, rng.Float64()*2-1)
		for _, nb := range g.Neighbors(q) {
			if nb > q {
				p.AddCoupling(q, nb, rng.Float64()*2-1)
			}
		}
	}
	return anneal.Compile(p)
}

var benchGrids = []struct {
	kind       string
	rows, cols int
}{
	{topology.ChimeraKind, 12, 12},
	{topology.ChimeraKind, 24, 24},
	{topology.PegasusKind, 12, 12},
	{topology.PegasusKind, 24, 24},
	{topology.ZephyrKind, 12, 12},
	{topology.ZephyrKind, 24, 24},
}

// BenchmarkSASweep measures one full simulated-annealing run (64 sweeps)
// per topology kind and grid size with a warm scratch, the steady-state
// regime of a 1000-run solve. -benchmem should report 0 allocs/op.
func BenchmarkSASweep(b *testing.B) {
	for _, g := range benchGrids {
		b.Run(fmt.Sprintf("%s-%dx%d", g.kind, g.rows, g.cols), func(b *testing.B) {
			c := topoProgram(b, g.kind, g.rows, g.cols)
			sa := anneal.DefaultSA()
			rng := anneal.NewRand(1)
			sc := anneal.NewScratch()
			sa.SampleInto(c, rng, sc, nil) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sa.SampleInto(c, rng, sc, nil)
			}
		})
	}
}

// BenchmarkSQASweep is BenchmarkSASweep for the path-integral SQA
// sampler (8 replicas × 48 sweeps).
func BenchmarkSQASweep(b *testing.B) {
	for _, g := range benchGrids {
		b.Run(fmt.Sprintf("%s-%dx%d", g.kind, g.rows, g.cols), func(b *testing.B) {
			c := topoProgram(b, g.kind, g.rows, g.cols)
			sqa := anneal.DefaultSQA()
			rng := anneal.NewRand(1)
			sc := anneal.NewScratch()
			sqa.SampleInto(c, rng, sc, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sqa.SampleInto(c, rng, sc, nil)
			}
		})
	}
}

// TestSampleIntoAllocFree pins the arena contract: after the first call
// has grown the scratch, SampleInto performs zero heap allocations per
// run, for both samplers, on every topology kind, under a gauge.
func TestSampleIntoAllocFree(t *testing.T) {
	for _, kind := range []string{topology.ChimeraKind, topology.PegasusKind, topology.ZephyrKind} {
		c := topoProgram(t, kind, 4, 4)
		rng := anneal.NewRand(2)
		gauge := make([]uint64, anneal.WordsFor(c.N))
		anneal.RandomSpinsInto(rng, c.N, gauge)

		sa := anneal.DefaultSA()
		sc := anneal.NewScratch()
		sa.SampleInto(c, rng, sc, gauge)
		if a := testing.AllocsPerRun(10, func() { sa.SampleInto(c, rng, sc, gauge) }); a != 0 {
			t.Errorf("%s: SA SampleInto allocates %v allocs/run on a warm scratch, want 0", kind, a)
		}

		sqa := anneal.DefaultSQA()
		scq := anneal.NewScratch()
		sqa.SampleInto(c, rng, scq, gauge)
		if a := testing.AllocsPerRun(10, func() { sqa.SampleInto(c, rng, scq, gauge) }); a != 0 {
			t.Errorf("%s: SQA SampleInto allocates %v allocs/run on a warm scratch, want 0", kind, a)
		}
	}
}

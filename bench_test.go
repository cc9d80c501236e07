// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation (Section 7) plus the ablations DESIGN.md calls
// out. Each Benchmark* prints the rows/series the paper reports; the -v
// output of one iteration is the reproduction artifact.
//
// Scaled defaults keep `go test -bench=.` bounded offline; the full paper
// protocol (20 instances, 100 s classical windows) is available via
// `go run ./cmd/mqo-bench -instances 20 -budget 100s`.
package repro

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/embedding"
	"repro/internal/harness"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/solvers"
	"repro/internal/topology"
	"repro/internal/trace"
)

// benchConfig is the scaled-down experiment configuration used by the
// figure benchmarks.
func benchConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Instances = 2
	cfg.Budget = 500 * time.Millisecond
	cfg.QARuns = 500
	cfg.GAPopulations = []int{50, 200}
	return cfg
}

// out prints figure output only on the first benchmark iteration.
func out(b *testing.B, i int) io.Writer {
	if i == 0 {
		return os.Stdout
	}
	return io.Discard
}

// BenchmarkFigure4 regenerates Figure 4: solution cost versus optimization
// time for the hardest class, 537 queries with 2 plans per query.
func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	class := mqo.Class{Queries: 537, PlansPerQuery: 2}
	for i := 0; i < b.N; i++ {
		res, err := cfg.RunAnytime(context.Background(), class)
		if err != nil {
			b.Fatal(err)
		}
		harness.RenderAnytime(out(b, i), res, cfg.SolverNames())
	}
}

// BenchmarkFigure5 regenerates Figure 5: the class with the most plans per
// query (108 queries × 5 plans), where the embedding overhead is largest.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	class := mqo.Class{Queries: 108, PlansPerQuery: 5}
	for i := 0; i < b.N; i++ {
		res, err := cfg.RunAnytime(context.Background(), class)
		if err != nil {
			b.Fatal(err)
		}
		harness.RenderAnytime(out(b, i), res, cfg.SolverNames())
	}
}

// BenchmarkTable1 regenerates Table 1: milliseconds until the LIN-MQO
// solver finds the optimal solution, per class.
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig()
	cfg.Budget = 2 * time.Second
	for i := 0; i < b.N; i++ {
		rows, err := cfg.RunTable1(context.Background(), mqo.PaperClasses)
		if err != nil {
			b.Fatal(err)
		}
		harness.RenderTable1(out(b, i), rows)
	}
}

// BenchmarkFigure6 regenerates Figure 6: average quantum speedup against
// qubits per variable across all four classes.
func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		var results []*harness.AnytimeResult
		for _, class := range mqo.PaperClasses {
			r, err := cfg.RunAnytime(context.Background(), class)
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, r)
		}
		harness.RenderFig6(out(b, i), harness.RunFig6(results))
	}
}

// BenchmarkFigure7 regenerates Figure 7: the problem-dimension frontier
// for 1152, 2304, and 4608 qubits.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderFig7(out(b, i), harness.RunFig7(harness.DefaultFig7Plans()))
	}
}

// --- Execution engine ----------------------------------------------------

// BenchmarkPipeline measures the QuantumMQO hot path — gauge-batch
// sampling plus read-out decoding — sequentially and fanned out across
// all cores. The two sub-benchmarks produce BIT-IDENTICAL results (see
// TestQuantumMQODeterministicAcrossParallelism); only wall-clock differs,
// so their ratio is the execution engine's speedup on this machine.
func BenchmarkPipeline(b *testing.B) {
	g := chimera.DWave2X(0, 0)
	p, err := core.GenerateEmbeddable(rand.New(rand.NewSource(2)), g,
		mqo.Class{Queries: 537, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.QuantumMQO(context.Background(), p,
					core.Options{Runs: 400, Graph: g, Parallelism: bc.par}, 1)
				if err != nil {
					b.Fatal(err)
				}
				if res.Runs != 400 {
					b.Fatalf("performed %d runs, want 400", res.Runs)
				}
			}
		})
	}
}

// BenchmarkHarnessAnytime measures one full anytime experiment (the unit
// behind Figures 4 and 5) sequentially versus pooled: instances, the
// solver panel, and gauge batches all fan out under Config.Parallelism.
func BenchmarkHarnessAnytime(b *testing.B) {
	cfg := benchConfig()
	cfg.Budget = 200 * time.Millisecond
	class := mqo.Class{Queries: 108, PlansPerQuery: 5}
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := cfg
			c.Parallelism = bc.par
			for i := 0; i < b.N; i++ {
				if _, err := c.RunAnytime(context.Background(), class); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations -----------------------------------------------------------

// ablationInstance is a mid-size embeddable instance shared by ablations.
func ablationInstance(b *testing.B) *mqo.Problem {
	b.Helper()
	g := chimera.DWave2X(0, 0)
	p, err := core.GenerateEmbeddable(rand.New(rand.NewSource(5)), g,
		mqo.Class{Queries: 108, PlansPerQuery: 5}, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationSamplers compares the two hardware surrogates (SA vs
// SQA) at equal run counts.
func BenchmarkAblationSamplers(b *testing.B) {
	p := ablationInstance(b)
	_, opt, err := p.Optimum()
	if err != nil {
		b.Fatal(err)
	}
	for _, sampler := range []anneal.Sampler{anneal.DefaultSA(), anneal.DefaultSQA()} {
		b.Run(sampler.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 50, Sampler: sampler}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric((res.Cost-opt)/opt*100, "%gap")
			}
		})
	}
}

// BenchmarkAblationChainStrength compares Choi's per-chain bound against a
// conservative uniform chain strength.
func BenchmarkAblationChainStrength(b *testing.B) {
	p := ablationInstance(b)
	_, opt, err := p.Optimum()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, uniform float64) {
		for i := 0; i < b.N; i++ {
			res, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 50, UniformChainStrength: uniform}, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric((res.Cost-opt)/opt*100, "%gap")
		}
	}
	b.Run("choi-per-chain", func(b *testing.B) { run(b, 0) })
	b.Run("uniform-100", func(b *testing.B) { run(b, 100) })
}

// BenchmarkAblationGauges compares sampling with the paper's 10 random
// gauges against the identity gauge.
func BenchmarkAblationGauges(b *testing.B) {
	p := ablationInstance(b)
	for _, disable := range []bool{false, true} {
		name := "gauges-on"
		if disable {
			name = "gauges-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.QuantumMQO(context.Background(), p, core.Options{Runs: 50, DisableGauges: disable}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEmbedding compares the qubit footprint of the clustered
// pattern against a single TRIAD on instances small enough for both.
func BenchmarkAblationEmbedding(b *testing.B) {
	g := chimera.DWave2X(0, 0)
	p, err := core.GenerateEmbeddable(rand.New(rand.NewSource(9)), g,
		mqo.Class{Queries: 12, PlansPerQuery: 4}, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	mapping := logical.Map(p)
	b.Run("clustered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emb, _, err := core.EmbedProblem(g, p, mapping, core.PatternAuto)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(emb.NumQubits()), "qubits")
		}
	})
	b.Run("triad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emb, err := embedding.Triad(g, p.NumPlans())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(emb.NumQubits()), "qubits")
		}
	})
}

// BenchmarkAblationPenaltyWeights compares the paper's global penalty
// weights against the per-query refinement (smaller weight ranges are
// friendlier to the annealer's analog precision).
func BenchmarkAblationPenaltyWeights(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := mqo.Generate(rng, mqo.Class{Queries: 253, PlansPerQuery: 3}, mqo.DefaultGeneratorConfig())
	// The refinement shrinks the typical penalty magnitude (the max-cost
	// query keeps the global weight, so report the mean |linear weight|).
	meanAbsLinear := func(m *logical.Mapping) float64 {
		s := 0.0
		for i := 0; i < m.QUBO.N(); i++ {
			w := m.QUBO.Linear(i)
			if w < 0 {
				w = -w
			}
			s += w
		}
		return s / float64(m.QUBO.N())
	}
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(meanAbsLinear(logical.Map(p)), "mean|w|")
		}
	})
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(meanAbsLinear(logical.MapPerQuery(p)), "mean|w|")
		}
	})
}

// BenchmarkDecomposition measures the series-of-QUBOs extension (paper
// future work) on an instance 4× beyond the annealer's single-QUBO
// capacity.
func BenchmarkDecomposition(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p := mqo.Generate(rng, mqo.Class{Queries: 2000, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	_, opt, err := p.Optimum()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := decompose.Solve(context.Background(), p, decompose.Options{WindowQueries: 16,
			Core: core.Options{Runs: 40}}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.Cost-opt)/opt*100, "%gap")
		b.ReportMetric(float64(res.Windows), "windows")
	}
}

// --- Component micro-benchmarks ------------------------------------------

// BenchmarkLogicalMapping measures the MQO→QUBO transformation on the
// largest class (Theorem 4 bounds it by O(n·(m·l)²)).
func BenchmarkLogicalMapping(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := mqo.Generate(rng, mqo.Class{Queries: 537, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logical.Map(p)
	}
}

// BenchmarkPhysicalMapping measures embedding + weight assignment for the
// largest class.
func BenchmarkPhysicalMapping(b *testing.B) {
	g := chimera.DWave2X(0, 0)
	p, err := core.GenerateEmbeddable(rand.New(rand.NewSource(2)), g,
		mqo.Class{Queries: 537, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	mapping := logical.Map(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb, _, err := core.EmbedProblem(g, p, mapping, core.PatternAuto)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := embedding.PhysicalMap(emb, mapping.QUBO, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// annealingProgram compiles an embedded problem of the class on the
// D-Wave 2X graph to the physical sampling program.
func annealingProgram(b *testing.B, class mqo.Class) *anneal.Compiled {
	return embeddedProgram(b, chimera.DWave2X(0, 0), class, core.PatternAuto, 3)
}

// embeddedProgram compiles a GenerateEmbeddable instance of the class,
// drawn from seed and embedded on g with pattern, to the physical
// sampling program.
func embeddedProgram(b *testing.B, g topology.Graph, class mqo.Class, pattern core.Pattern, seed int64) *anneal.Compiled {
	p, err := core.GenerateEmbeddable(rand.New(rand.NewSource(seed)), g, class, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	mapping := logical.Map(p)
	emb, _, err := core.EmbedProblem(g, p, mapping, pattern)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := embedding.PhysicalMap(emb, mapping.QUBO, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	return anneal.Compile(ising.FromQUBO(phys.QUBO))
}

// largestClass is the largest paper class, 537 queries × 2 plans.
var largestClass = mqo.Class{Queries: 537, PlansPerQuery: 2}

// benchmarkColdRuns measures one cold annealing run + read-out of sa on
// an embedded problem (hardware charges 376 µs; this reports the
// simulation cost).
func benchmarkColdRuns(b *testing.B, compiled *anneal.Compiled, sa *anneal.SimulatedAnnealer) {
	rng := anneal.NewRand(4)
	var sc anneal.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.SampleInto(compiled, rng, &sc, nil)
	}
}

// BenchmarkAnnealingRun measures a default 64-sweep run on the largest
// embedded problem, which spends most of its sweeps frozen.
func BenchmarkAnnealingRun(b *testing.B) {
	benchmarkColdRuns(b, annealingProgram(b, largestClass), anneal.DefaultSA())
}

// BenchmarkAnnealingRun108x5 is BenchmarkAnnealingRun on the 108×5
// class, whose runs freeze later and less.
func BenchmarkAnnealingRun108x5(b *testing.B) {
	benchmarkColdRuns(b, annealingProgram(b, mqo.Class{Queries: 108, PlansPerQuery: 5}), anneal.DefaultSA())
}

// BenchmarkAnnealingRun16Sweeps is BenchmarkAnnealingRun at 16 sweeps,
// the low-effort schedule of perfbench's serve-churn requests, whose
// hot opening sweeps take most of a run's time.
func BenchmarkAnnealingRun16Sweeps(b *testing.B) {
	sa := anneal.DefaultSA()
	sa.Sweeps = 16
	benchmarkColdRuns(b, annealingProgram(b, largestClass), sa)
}

// BenchmarkAnnealingRunOffGrid is BenchmarkAnnealingRun on an off-grid
// program, the 45×2 TRIAD program on a 24×24 Chimera graph that
// mqopt's throughput test solves. TRIAD chains split a linear weight
// over a chain length that is not a power of two, so its runs recompute
// flip deltas where the paper classes' runs update them in place.
func BenchmarkAnnealingRunOffGrid(b *testing.B) {
	compiled := embeddedProgram(b, chimera.NewGraph(24, 24), mqo.Class{Queries: 45, PlansPerQuery: 2}, core.PatternTriad, 1)
	if compiled.OnGrid {
		b.Fatal("the TRIAD program is on grid; this benchmark no longer watches the recompute path")
	}
	benchmarkColdRuns(b, compiled, anneal.DefaultSA())
}

// BenchmarkAnnealingRunWarm is BenchmarkAnnealingRun for the warm start
// that sessions use: every run starts from one cold read-out.
func BenchmarkAnnealingRunWarm(b *testing.B) {
	compiled := annealingProgram(b, largestClass)
	sa := anneal.DefaultSA()
	rng := anneal.NewRand(4)
	var sc anneal.Scratch
	sa.SampleInto(compiled, rng, &sc, nil)
	init := append([]uint64(nil), sc.Words()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.SampleWarmInto(compiled, rng, &sc, init)
	}
}

// BenchmarkChainDP measures the exact reference solver on the largest
// class.
func BenchmarkChainDP(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := mqo.Generate(rng, mqo.Class{Queries: 537, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.SolveChainDP(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvers measures raw incumbent throughput of each classical
// baseline on a mid-size instance with a fixed budget.
func BenchmarkSolvers(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := mqo.Generate(rng, mqo.Class{Queries: 108, PlansPerQuery: 5}, mqo.DefaultGeneratorConfig())
	for _, s := range []solvers.Solver{
		&solvers.BranchAndBound{},
		solvers.QUBOBranchAndBound{},
		solvers.HillClimb{},
		solvers.NewGenetic(50),
	} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tr trace.Trace
				s.Solve(context.Background(), p, 50*time.Millisecond, rand.New(rand.NewSource(int64(i))), &tr)
			}
		})
	}
}

package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/chimera"
	"repro/internal/embedding"
	"repro/internal/ising"
	"repro/internal/mqo"
)

// cacheTestProblem returns a small embeddable instance.
func cacheTestProblem(t *testing.T) *mqo.Problem {
	t.Helper()
	g := chimera.DWave2X(0, 0)
	p, err := GenerateEmbeddable(rand.New(rand.NewSource(11)), g,
		mqo.Class{Queries: 6, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCacheBitIdenticalResults: the determinism contract extends to the
// compilation cache — a fixed seed produces the same solution, cost, and
// incumbent trace whether the artifact is compiled fresh, cached cold,
// or served warm.
func TestCacheBitIdenticalResults(t *testing.T) {
	p := cacheTestProblem(t)
	ctx := context.Background()
	base := Options{Runs: 50, Parallelism: 1}

	uncached, err := QuantumMQO(ctx, p, base, 7)
	if err != nil {
		t.Fatal(err)
	}
	cc := NewCompileCache(8)
	withCache := base
	withCache.Cache = cc
	cold, err := QuantumMQO(ctx, p, withCache, 7)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := QuantumMQO(ctx, p, withCache, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Result{"cold": cold, "warm": warm} {
		if !reflect.DeepEqual(got.Solution, uncached.Solution) || got.Cost != uncached.Cost {
			t.Errorf("%s cache: solution/cost diverge from uncached run", name)
		}
		if !reflect.DeepEqual(got.Trace.Points(), uncached.Trace.Points()) {
			t.Errorf("%s cache: incumbent trace diverges from uncached run", name)
		}
		if got.QubitsUsed != uncached.QubitsUsed || got.BrokenChainRate != uncached.BrokenChainRate {
			t.Errorf("%s cache: annealer artifacts diverge", name)
		}
	}
	st := cc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss (cold) + 1 hit (warm)", st)
	}
	// The cached artifact reports its own build cost, not lookup time.
	if cold.PreprocessTime != warm.PreprocessTime {
		t.Errorf("PreprocessTime differs between cold (%v) and warm (%v) hits of one artifact",
			cold.PreprocessTime, warm.PreprocessTime)
	}
}

// TestCompiledKeepsNoPhysicalQUBO: a cached artifact holds only what a
// solve reads. Program carries the physical formula, so the artifact
// drops the physical QUBO it was built from, while PhysicalMap itself
// still returns it to its other callers. Both mappings agree on the
// formula: the program equals one compiled from PhysicalMap's QUBO.
func TestCompiledKeepsNoPhysicalQUBO(t *testing.T) {
	p := cacheTestProblem(t)
	for _, uniform := range []float64{0, 40} {
		opt := (Options{UniformChainStrength: uniform}).withDefaults()
		comp, err := compile(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Phys.QUBO != nil {
			t.Errorf("uniform %v: the compiled artifact keeps the physical QUBO", uniform)
		}
		phys, err := embedding.PhysicalMap(comp.Emb, comp.Mapping.QUBO, opt.Epsilon)
		if uniform > 0 {
			phys, err = embedding.PhysicalMapUniform(comp.Emb, comp.Mapping.QUBO, opt.Epsilon, uniform)
		}
		if err != nil {
			t.Fatal(err)
		}
		if phys.QUBO == nil {
			t.Fatal("PhysicalMap returned no physical QUBO")
		}
		if want := anneal.Compile(ising.FromQUBO(phys.QUBO)); !reflect.DeepEqual(comp.Program, want) {
			t.Errorf("uniform %v: the artifact's program differs from one compiled from PhysicalMap's QUBO", uniform)
		}
	}
}

// TestCacheKeySeparation: different shapes and different compile options
// must not collide in the cache.
func TestCacheKeySeparation(t *testing.T) {
	p := cacheTestProblem(t)
	g := chimera.DWave2X(0, 0)
	base := (Options{Graph: g}).withDefaults()

	triad := base
	triad.Pattern = PatternTriad
	if compileKey(p, base) == compileKey(p, triad) {
		t.Error("pattern change did not change the compile key")
	}
	eps := base
	eps.Epsilon = 0.5
	if compileKey(p, base) == compileKey(p, eps) {
		t.Error("epsilon change did not change the compile key")
	}
	uniform := base
	uniform.UniformChainStrength = 3
	if compileKey(p, base) == compileKey(p, uniform) {
		t.Error("chain-strength change did not change the compile key")
	}
	faulty := base
	faulty.Graph = chimera.DWave2X(chimera.PaperBrokenQubits, 1)
	if compileKey(p, base) == compileKey(p, faulty) {
		t.Error("fault map change did not change the compile key")
	}
	// Value identity: independently built problems and graphs that are
	// structurally equal share a key — that is the whole point.
	p2 := mqo.MustNew(p.QueryPlans, p.Costs, p.Savings)
	other := base
	other.Graph = chimera.DWave2X(0, 0)
	if compileKey(p, base) != compileKey(p2, other) {
		t.Error("structurally identical inputs landed on different compile keys")
	}
}

// BenchmarkCompileColdVsWarm pins the cache's reason to exist: the
// compile path against a cache hit for one problem shape.
func BenchmarkCompileCold(b *testing.B) {
	g := chimera.DWave2X(0, 0)
	p, err := GenerateEmbeddable(rand.New(rand.NewSource(11)), g,
		mqo.Class{Queries: 10, PlansPerQuery: 3}, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	opt := (Options{Graph: g}).withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileWarm(b *testing.B) {
	g := chimera.DWave2X(0, 0)
	p, err := GenerateEmbeddable(rand.New(rand.NewSource(11)), g,
		mqo.Class{Queries: 10, PlansPerQuery: 3}, mqo.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	opt := (Options{Graph: g}).withDefaults()
	cc := NewCompileCache(8)
	ctx := context.Background()
	if _, err := cc.compiled(ctx, p, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.compiled(ctx, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

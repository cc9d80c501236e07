package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/anneal"
	"repro/internal/chimera"
	"repro/internal/embedding"
	"repro/internal/hashutil"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/plancache"
	"repro/internal/topology"
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
	// The artifact keeps no problem: a hit decodes on the caller's, here
	// another request's problem with the same content.
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sameContent, err := mqo.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	other, err := QuantumMQO(ctx, sameContent, withCache, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Result{"cold": cold, "warm": warm, "other request": other} {
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
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 1 miss (cold) + 2 hits (warm, other request)", st)
	}
	// The cached artifact reports its own build cost, not lookup time.
	if cold.PreprocessTime != warm.PreprocessTime {
		t.Errorf("PreprocessTime differs between cold (%v) and warm (%v) hits of one artifact",
			cold.PreprocessTime, warm.PreprocessTime)
	}
}

// TestConcurrentCacheHitsOnCallersProblems: requests with problems of
// the same content, each decoded on its own copy, share one cached
// artifact from several goroutines at once and all get the uncached
// result. Under -race this checks that a hit only reads the frozen
// QUBO, the read-out and the program.
func TestConcurrentCacheHitsOnCallersProblems(t *testing.T) {
	p := cacheTestProblem(t)
	ctx := context.Background()
	base := Options{Runs: 50, Parallelism: 2}
	want, err := QuantumMQO(ctx, p, base, 7)
	if err != nil {
		t.Fatal(err)
	}
	withCache := base
	withCache.Cache = NewCompileCache(8)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	const requests = 6
	results := make([]*Result, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own, err := mqo.Read(bytes.NewReader(encoded))
			if err == nil {
				results[i], err = QuantumMQO(ctx, own, withCache, 7)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got.Solution, want.Solution) || got.Cost != want.Cost ||
			!reflect.DeepEqual(got.Trace.Points(), want.Trace.Points()) {
			t.Errorf("request %d: result diverges from the uncached solve", i)
		}
	}
	if st := withCache.Cache.Stats(); st.Misses != 1 {
		t.Errorf("cache stats = %+v, want exactly one compile", st)
	}
}

// TestCompiledHoldsOnlyWhatASolveReads: a cached artifact keeps the
// frozen logical QUBO, the chain read-out and the one sampling program,
// and nothing the build alone reads. A walk over everything the
// artifact reaches (stopping at a shared hardware graph) must meet no
// map, no request problem or logical mapping, no embedding and no
// Ising form of the program, and the program must hold only its padded
// kernel layout. The program still equals one compiled from
// PhysicalMap's QUBO, and the embedding figures equal the embedding's.
func TestCompiledHoldsOnlyWhatASolveReads(t *testing.T) {
	p := cacheTestProblem(t)
	// TRIAD's chains are longer than one qubit, so the chain strength
	// shapes the program there.
	for name, o := range map[string]Options{
		"auto":          {},
		"triad":         {Pattern: PatternTriad},
		"triad uniform": {Pattern: PatternTriad, UniformChainStrength: 40},
	} {
		opt := o.withDefaults()
		uniform := opt.UniformChainStrength
		comp, err := compile(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		walkArtifact(t, reflect.ValueOf(comp), name+": Compiled", map[uintptr]bool{})
		prog := comp.Program
		if got, want := reachableBytes(reflect.ValueOf(prog)), 12*prog.N+12*prog.N*prog.Stride; got != want {
			t.Errorf("%s: the program reaches %d bytes of slices, want %d (H, Deg, PNbr and PW only)", name, got, want)
		}

		mapping := logical.Map(p)
		emb, _, err := EmbedProblem(opt.Graph, p, mapping, opt.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		phys, err := embedding.PhysicalMap(emb, mapping.QUBO, opt.Epsilon)
		if uniform > 0 {
			phys, err = embedding.PhysicalMapUniform(emb, mapping.QUBO, opt.Epsilon, uniform)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := anneal.Compile(ising.FromQUBO(phys.QUBO))
		if prog.N != want.N || prog.Offset != want.Offset || prog.Stride != want.Stride ||
			!reflect.DeepEqual(prog.H, want.H) || !reflect.DeepEqual(prog.Deg, want.Deg) ||
			!reflect.DeepEqual(prog.PNbr, want.PNbr) || !reflect.DeepEqual(prog.PW, want.PW) {
			t.Errorf("%s: the artifact's program differs from one compiled from PhysicalMap's QUBO", name)
		}
		if comp.QubitsUsed != emb.NumQubits() || comp.QubitsPerVariable != emb.QubitsPerVariable() ||
			comp.MaxChainLength != emb.MaxChainLength() {
			t.Errorf("%s: embedding figures %d/%v/%d, the embedding's are %d/%v/%d", name,
				comp.QubitsUsed, comp.QubitsPerVariable, comp.MaxChainLength,
				emb.NumQubits(), emb.QubitsPerVariable(), emb.MaxChainLength())
		}
	}
}

// notInArtifact names the types a cached artifact must not reach.
var notInArtifact = map[reflect.Type]string{
	reflect.TypeOf((*mqo.Problem)(nil)):         "a request problem",
	reflect.TypeOf((*logical.Mapping)(nil)):     "a logical mapping",
	reflect.TypeOf((*embedding.Embedding)(nil)): "an embedding",
	reflect.TypeOf((*ising.Problem)(nil)):       "an Ising form of the program",
}

var graphType = reflect.TypeOf((*topology.Graph)(nil)).Elem()

// walkArtifact reports every non-nil map and every notInArtifact type
// reachable from v. It does not enter a hardware graph: graphs share the
// per-shape adjacency table, and their fault maps are theirs.
func walkArtifact(t *testing.T, v reflect.Value, path string, seen map[uintptr]bool) {
	t.Helper()
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			walkArtifact(t, v.Elem(), path, seen)
		}
	case reflect.Pointer:
		if v.IsNil() || v.Type().Implements(graphType) || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		if what, bad := notInArtifact[v.Type()]; bad {
			t.Errorf("%s holds %s (%s)", path, what, v.Type())
			return
		}
		walkArtifact(t, v.Elem(), path, seen)
	case reflect.Map:
		if !v.IsNil() {
			t.Errorf("%s holds a map (%s)", path, v.Type())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkArtifact(t, v.Field(i), path+"."+v.Type().Field(i).Name, seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkArtifact(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)
		}
	}
}

// reachableBytes sums the element bytes of every slice reachable from v
// through pointers and struct fields.
func reachableBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return reachableBytes(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += reachableBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		return v.Len() * int(v.Type().Elem().Size())
	}
	return 0
}

// TestHashSinksStreamSameBytes: the compile-cache Keyer and Sum64's sink
// encode integers themselves (hashutil.Uint64Writer) instead of taking
// WriteU64's byte slice. Streaming a problem and a faulty graph through
// each must hash exactly the bytes a plain bytes.Buffer receives.
func TestHashSinksStreamSameBytes(t *testing.T) {
	p := cacheTestProblem(t)
	g := chimera.DWave2X(chimera.PaperBrokenQubits, 1)
	stream := func(w io.Writer) {
		p.HashInto(w)
		g.HashInto(w)
	}
	var buf bytes.Buffer
	stream(&buf)

	k := plancache.NewKeyer()
	stream(k)
	ref := plancache.NewKeyer()
	ref.Write(buf.Bytes())
	if k.Key() != ref.Key() {
		t.Error("Keyer hashed different bytes than a bytes.Buffer received")
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got, want := hashutil.Sum64(stream), h.Sum64(); got != want {
		t.Errorf("Sum64 = %#x, FNV-1a of the buffered bytes = %#x", got, want)
	}
}

// TestCacheHitAllocations pins what a compile-cache hit costs in heap
// allocations on the paper's largest class (537 queries × 2 plans):
// deriving the cache key, and a whole 1000-run solve at parallelism 1.
// Hashing the problem's integers through WriteU64 used to allocate once
// per value (≈5,500 times per key). A sweep allocates nothing, so a
// short anneal schedule keeps the test fast without changing the count.
func TestCacheHitAllocations(t *testing.T) {
	g := chimera.DWave2X(0, 0)
	p, err := GenerateEmbeddable(rand.New(rand.NewSource(5)), g,
		mqo.Class{Queries: 537, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Graph:       g,
		Sampler:     &anneal.SimulatedAnnealer{Sweeps: 4, BetaStart: 0.1, BetaEnd: 8},
		Runs:        1000,
		Parallelism: 1,
		Cache:       NewCompileCache(4),
	}
	if a := testing.AllocsPerRun(5, func() { compileKey(p, opt.withDefaults()) }); a > 8 {
		t.Errorf("compileKey allocates %v times, want at most 8", a)
	}
	ctx := context.Background()
	solve := func() {
		if _, err := QuantumMQO(ctx, p, opt, 7); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's own warm-up run compiles and caches the artifact.
	if a := testing.AllocsPerRun(1, solve); a > 64 {
		t.Errorf("a cache-hit solve allocates %v times, want at most 64", a)
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

package core

import (
	"context"
	"io"
	"math"
	"time"

	"repro/internal/anneal"
	"repro/internal/embedding"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/plancache"
	"repro/internal/qubo"
)

// Compiled is the compilation artifact of one (problem, topology,
// pattern, weights) combination: everything QuantumMQO reads after the
// first annealing run starts. Compilation — the logical MQO→QUBO
// mapping, the minor embedding into the hardware graph, the physical
// weight expansion, and the sampling program — is the wall-clock hot
// path of the pipeline (the paper reports 112-135 ms per test case,
// against microseconds of modeled anneal time), which makes Compiled
// the natural unit of caching across Solve requests. The minor
// embedding targets whichever hardware topology the options carry —
// Chimera, Pegasus, or Zephyr — and the cache key includes the
// topology's kind tag, so artifacts never leak across graphs.
//
// A Compiled is IMMUTABLE once built, and the sampling path only ever
// reads it: every gauge batch samples the one Program from its start
// state XOR the gauge mask, and read-out decoding writes into per-worker
// buffers. One instance is therefore safe to share between any number
// of concurrent solves. An artifact keeps only what a solve reads. The
// request's problem is not kept: the decode runs on the caller's
// problem, whose content the cache key fixes. Nor are the embedding,
// the physical QUBO and its Ising form, which are intermediates of the
// build.
type Compiled struct {
	// QUBO is the frozen logical formula; every read-out's descent
	// reads it.
	QUBO *qubo.Problem
	// Phys is the physical read-out: each logical variable's chain of
	// compact qubit indices and its chain strength. Its QUBO is nil;
	// Program holds the physical formula.
	Phys *embedding.Physical
	// Program is the sampling program of the physical formula in Ising
	// form. Program.N is the physical spin count.
	Program *anneal.Compiled
	// QubitsUsed, QubitsPerVariable and MaxChainLength describe the
	// embedding, taken when it was built.
	QubitsUsed        int
	QubitsPerVariable float64
	MaxChainLength    int
	// UsedTriadFallback reports that the clustered pattern could not
	// realize the instance and the general TRIAD pattern was used.
	UsedTriadFallback bool
	// PrepTime is the wall time the original build took. Cache hits
	// report the artifact's own build cost rather than the (near-zero)
	// lookup time, keeping the field meaningful and deterministic for a
	// given artifact.
	PrepTime time.Duration
}

// Compile builds the compilation artifact for p under opt (defaults
// applied as in QuantumMQO). It performs no sampling.
func Compile(p *mqo.Problem, opt Options) (*Compiled, error) {
	return compile(p, opt.withDefaults())
}

// compile is Compile without the defaults pass; opt must already be
// resolved. The returned artifact is frozen before anyone else can see
// it.
func compile(p *mqo.Problem, opt Options) (*Compiled, error) {
	start := time.Now()
	// The logical mapping always uses the paper's default ε; opt.Epsilon
	// is the physical mapping's chain-strength slack (matching the
	// pre-cache pipeline exactly).
	mapping := logical.Map(p)
	emb, fallback, err := EmbedProblem(opt.Graph, p, mapping, opt.Pattern)
	if err != nil {
		return nil, err
	}
	var phys *embedding.Physical
	if opt.UniformChainStrength > 0 {
		phys, err = embedding.PhysicalMapUniform(emb, mapping.QUBO, opt.Epsilon, opt.UniformChainStrength)
	} else {
		phys, err = embedding.PhysicalMap(emb, mapping.QUBO, opt.Epsilon)
	}
	if err != nil {
		return nil, err
	}
	program := anneal.Compile(ising.FromQUBO(phys.QUBO))
	phys.QUBO = nil
	mapping.QUBO.Freeze()
	return &Compiled{
		QUBO:              mapping.QUBO,
		Phys:              phys,
		Program:           program,
		QubitsUsed:        emb.NumQubits(),
		QubitsPerVariable: emb.QubitsPerVariable(),
		MaxChainLength:    emb.MaxChainLength(),
		UsedTriadFallback: fallback,
		PrepTime:          time.Since(start),
	}, nil
}

// compileKey derives the canonical cache key of a compilation: the
// problem structure, the hardware topology (fault map included), and
// every option that shapes the artifact. Runtime options — runs,
// sampler, parallelism, gauge/postprocess toggles — deliberately do not
// enter the key, since they never change what Compile produces. The
// problem's hash covers every field the read-out decode reads (query
// plans, costs, savings, clustering), so on a cache hit the caller's
// problem decodes exactly as the one the artifact was built from.
func compileKey(p *mqo.Problem, opt Options) plancache.Key {
	k := plancache.NewKeyer()
	io.WriteString(k, "core.compile.v1\x00")
	p.HashInto(k)
	opt.Graph.HashInto(k)
	io.WriteString(k, string(opt.Pattern))
	k.Write([]byte{0})
	k.Uint64(math.Float64bits(opt.Epsilon))
	k.Uint64(math.Float64bits(opt.UniformChainStrength))
	return k.Key()
}

// CompileCache amortizes Compile across solves: a sharded, lock-striped
// LRU keyed by compileKey with single-flight deduplication, so N
// concurrent requests for the same problem shape compile exactly once
// and share the frozen artifact. Decomposed (QUBO-series) solves pass
// the cache down to every window, so repeated windows — across sweeps
// and across requests — also compile once per distinct shape.
type CompileCache struct {
	c *plancache.Cache[*Compiled]
}

// NewCompileCache returns a cache holding at most capacity compiled
// artifacts (non-positive selects 128).
func NewCompileCache(capacity int) *CompileCache {
	return &CompileCache{c: plancache.New[*Compiled](capacity)}
}

// Compile returns the cached artifact for (p, opt), building and
// inserting it on a miss. ctx bounds only this caller's wait on a
// single-flighted build owned by another goroutine.
func (cc *CompileCache) Compile(ctx context.Context, p *mqo.Problem, opt Options) (*Compiled, error) {
	return cc.compiled(ctx, p, opt.withDefaults())
}

// compiled is Compile without the defaults pass.
func (cc *CompileCache) compiled(ctx context.Context, p *mqo.Problem, opt Options) (*Compiled, error) {
	v, _, err := cc.c.Do(ctx, compileKey(p, opt), func() (*Compiled, error) {
		return compile(p, opt)
	})
	return v, err
}

// Stats snapshots the cache counters.
func (cc *CompileCache) Stats() plancache.Stats { return cc.c.Stats() }

package mqopt

import "repro/internal/core"

// Cache is a content-addressed compilation cache shared across Solve
// calls: it stores the compiled artifacts of the annealer pipeline —
// the frozen logical QUBO, the chain read-out of the hardware minor
// embedding, and the sampling program of the physical energy formula —
// keyed by a canonical hash of the problem structure, the hardware
// topology, and the compile-relevant options (embedding pattern,
// penalty slack, chain strength). Compilation is the wall-clock hot
// path of a solve (the anneal itself is microseconds of modeled time),
// so a service handling many requests over a bounded population of
// problem shapes compiles each shape once and reuses the artifact
// everywhere:
//
//	cache := mqopt.NewCache(256)
//	res1, _ := solverreg.Solve(ctx, "qa", p, mqopt.WithCache(cache))
//	res2, _ := solverreg.Solve(ctx, "qa", p, mqopt.WithCache(cache)) // no recompile
//
// A Cache is safe for concurrent use: lookups are lock-striped across
// shards, eviction is LRU per shard, and concurrent requests for the
// same absent shape are single-flighted so the compile runs exactly
// once. Cached artifacts are frozen (immutable); sharing them cannot
// change results — for a fixed seed, a solve returns bit-identical
// output with a cold cache, a warm cache, or no cache at all. Classical
// baselines do not compile and ignore the option; the annealer backends
// (qa, qa-series) honor it, decomposed solves reuse the cache for every
// window, and a portfolio forwards it to its members.
type Cache struct {
	inner *core.CompileCache
}

// NewCache returns a cache holding at most capacity compiled shapes
// (non-positive selects 128).
func NewCache(capacity int) *Cache {
	return &Cache{inner: core.NewCompileCache(capacity)}
}

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits counts lookups served by a cached artifact.
	Hits uint64
	// Misses counts lookups that compiled (one per single-flight group).
	Misses uint64
	// Shared counts lookups that joined another request's in-flight
	// compile instead of running their own.
	Shared uint64
	// Evictions counts artifacts dropped by LRU capacity pressure.
	Evictions uint64
	// Entries is the number of artifacts currently cached.
	Entries uint64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := c.inner.Stats()
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Shared:    s.Shared,
		Evictions: s.Evictions,
		Entries:   s.Entries,
	}
}

// compileCache unwraps the internal cache for the annealer backends; nil
// when c is nil.
func (c *Cache) compileCache() *core.CompileCache {
	if c == nil {
		return nil
	}
	return c.inner
}

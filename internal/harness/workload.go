package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/joingraph"
	"repro/internal/plancache"
	"repro/internal/portfolio"
	"repro/internal/solvers"
	"repro/internal/splitmix"
	"repro/internal/stats"
	"repro/internal/trace"
)

// workloadGenConfig shapes the panel's generated workloads: 6 queries of
// at most 4 plans each keep every derived instance inside the exhaustive
// exact solver's reach AND the device's TRIAD capacity, so the annealer
// races without decomposition.
var workloadGenConfig = joingraph.GenConfig{Queries: 6, Relations: 9, ZipfS: 1.2}

// WorkloadRow is one solver column of the workload panel, aggregated
// over the instances.
type WorkloadRow struct {
	Solver string
	// MeanCost is the mean final solution cost.
	MeanCost float64
	// MeanGap is the mean scaled gap against the exact optimum
	// ((cost − opt) / opt; 0 is optimal).
	MeanGap float64
	// TimeToBest is the mean modeled time of the last incumbent
	// improvement. Every column runs on a modeled clock — 376 µs per
	// annealing run, 15 µs per greedy planning pass — so the whole panel
	// is byte-identical across machines and parallelism levels.
	TimeToBest time.Duration
}

// WorkloadCachePanel reports the plan-cache sub-panel: a Zipf-skewed
// stream of workload-derived solve requests against one shared
// compilation cache. Shape popularity follows a Zipf draw rather than
// repeating one shape (100% warm hits), so the hit rate lands where a
// production mix would: high but below 1, with a tail of cold shapes.
type WorkloadCachePanel struct {
	// Requests in the stream.
	Requests int
	// DistinctShapes among them (each distinct shape compiles once).
	DistinctShapes int
	// Stats snapshots the shared cache's counters after the stream.
	Stats plancache.Stats
}

// HitRate returns the fraction of requests served from the cache.
func (p *WorkloadCachePanel) HitRate() float64 {
	total := p.Stats.Hits + p.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(p.Stats.Hits) / float64(total)
}

// WorkloadResult is the workload panel: annealer vs portfolio vs
// greedy-join raced Table-1 style on workload-derived MQO instances,
// plus the plan-cache stream.
type WorkloadResult struct {
	// Instances raced, each a Zipf-shaped generated workload.
	Instances int
	// Queries and Relations of each workload.
	Queries, Relations int
	// Rows, one per solver column.
	Rows []WorkloadRow
	// Cache is the Zipf-skewed plan-cache sub-panel.
	Cache WorkloadCachePanel
}

// workloadInstance pairs a derived workload instance with its optimum.
type workloadInstance struct {
	derived *joingraph.Derived
	optimum float64
}

// workloadCacheShapes is the template-pool size of the cache stream's
// Zipf draw; workloadCacheRequests is the stream length.
const (
	workloadCacheShapes   = 8
	workloadCacheRequests = 32
)

// RunWorkload executes the workload panel: cfg.Instances workloads are
// generated (Zipf-skewed query shapes over a shared catalog), derived
// into MQO instances, solved exactly for the optimum, and raced by three
// columns — QA, GREEDY-JOIN, and a PORTFOLIO of the two — under the
// modeled annealing budget. (instance, solver) tasks flatten onto one
// pool bounded by cfg.Parallelism; every task splits its stream off
// cfg.Seed, and every column charges a modeled clock, so the rendered
// panel is byte-identical at any worker count.
func (c Config) RunWorkload(ctx context.Context) (*WorkloadResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := c.withDefaults()

	instances := make([]workloadInstance, cfg.Instances)
	for i := range instances {
		w := joingraph.Generate(splitmix.Split(cfg.Seed, int64(i)), workloadGenConfig)
		d, err := joingraph.Derive(ctx, w, joingraph.DeriveOptions{Parallelism: 1})
		if err != nil {
			return nil, fmt.Errorf("harness: deriving workload instance %d: %w", i, err)
		}
		_, opt, err := d.Problem.Optimum()
		if err != nil {
			return nil, fmt.Errorf("harness: exact optimum for workload instance %d: %w", i, err)
		}
		instances[i] = workloadInstance{derived: d, optimum: opt}
	}

	// The three columns, built fresh per task. Greedy-join is bound to
	// its instance's derivation, so the factories take the instance index.
	qa := func() solvers.Solver {
		return &core.QASolver{Opt: core.Options{Graph: cfg.Graph, Runs: cfg.QARuns, Parallelism: 1, Cache: cfg.cache}}
	}
	gj := func(i int) solvers.Solver { return joingraph.NewGreedyJoinSolver(instances[i].derived) }
	columns := []struct {
		name  string
		build func(i int) solvers.Solver
	}{
		{"QA", func(int) solvers.Solver { return qa() }},
		{"GREEDY-JOIN", gj},
		{"PORTFOLIO(QA+GREEDY-JOIN)", func(i int) solvers.Solver {
			s := portfolioOf(qa(), gj(i))
			return s
		}},
	}

	n := cfg.Instances
	type taskOut struct {
		cost, gap float64
		ttb       time.Duration
		found     bool
	}
	flat, err := exec.Map(ctx, cfg.Parallelism, len(columns)*n,
		func(tctx context.Context, t int) (taskOut, error) {
			k, i := t/n, t%n
			inst := instances[i]
			s := columns[k].build(i)
			tr := &trace.Trace{}
			sol := s.Solve(tctx, inst.derived.Problem, cfg.qaBudget(), splitmix.New(cfg.Seed, int64(1000+t)), tr)
			if sol == nil || !inst.derived.Problem.Valid(sol) {
				return taskOut{}, nil
			}
			cost, err := inst.derived.Problem.Cost(sol)
			if err != nil {
				return taskOut{}, err
			}
			out := taskOut{cost: cost, gap: scaledCost(cost, inst.optimum), found: true}
			if pts := tr.Points(); len(pts) > 0 {
				out.ttb = pts[len(pts)-1].T
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &WorkloadResult{
		Instances: n,
		Queries:   workloadGenConfig.Queries,
		Relations: workloadGenConfig.Relations,
	}
	for k, col := range columns {
		var costs, gaps, ttbs []float64
		for i := 0; i < n; i++ {
			out := flat[k*n+i]
			if !out.found {
				continue
			}
			costs = append(costs, out.cost)
			gaps = append(gaps, out.gap)
			ttbs = append(ttbs, float64(out.ttb))
		}
		res.Rows = append(res.Rows, WorkloadRow{
			Solver:     col.name,
			MeanCost:   stats.Mean(costs),
			MeanGap:    stats.Mean(gaps),
			TimeToBest: time.Duration(stats.Mean(ttbs)),
		})
	}

	cache, err := cfg.runWorkloadCacheStream(ctx)
	if err != nil {
		return nil, err
	}
	res.Cache = *cache
	return res, nil
}

// portfolioOf wraps members in a sequential in-task portfolio, mirroring
// portfolioFactory's Parallelism discipline.
func portfolioOf(members ...solvers.Solver) solvers.Solver {
	s := portfolio.New(members...)
	s.Parallelism = 1
	return s
}

// runWorkloadCacheStream drives the plan-cache sub-panel: a SEQUENTIAL
// stream of solve requests whose workload shape is drawn from a
// Zipf(1.2) distribution over a small shape pool, all sharing one fresh
// compilation cache. Sequential by design — hit/miss counts must not
// depend on request interleaving — and cheap by configuration (one
// annealing run at a short Metropolis schedule, the service regime).
func (c Config) runWorkloadCacheStream(ctx context.Context) (*WorkloadCachePanel, error) {
	cfg := c.withDefaults()
	rng := rand.New(rand.NewSource(splitmix.Split(cfg.Seed, -1)))
	zipf := rand.NewZipf(rng, 1.2, 1, workloadCacheShapes-1)

	// Each shape id names one workload (derived lazily, memoized): the
	// popularity skew of the draw becomes the hit-rate skew of the cache.
	problems := map[uint64]*joingraph.Derived{}
	cache := core.NewCompileCache(64)
	sampler := anneal.DefaultSA()
	sampler.Sweeps = 4
	panel := &WorkloadCachePanel{Requests: workloadCacheRequests}
	seen := map[uint64]bool{}
	for r := 0; r < workloadCacheRequests; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		shape := zipf.Uint64()
		d, ok := problems[shape]
		if !ok {
			w := joingraph.Generate(splitmix.Split(cfg.Seed, int64(2000+shape)), workloadGenConfig)
			var err error
			d, err = joingraph.Derive(ctx, w, joingraph.DeriveOptions{Parallelism: 1})
			if err != nil {
				return nil, fmt.Errorf("harness: deriving cache-stream shape %d: %w", shape, err)
			}
			problems[shape] = d
		}
		seen[shape] = true
		opt := core.Options{Graph: cfg.Graph, Sampler: sampler, Runs: 1, Parallelism: 1, Cache: cache}
		if _, err := core.QuantumMQO(ctx, d.Problem, opt, splitmix.Split(cfg.Seed, int64(3000+r))); err != nil {
			return nil, fmt.Errorf("harness: cache-stream request %d: %w", r, err)
		}
	}
	panel.DistinctShapes = len(seen)
	panel.Stats = cache.Stats()
	return panel, nil
}

// RenderWorkload writes the workload panel as text.
func RenderWorkload(w io.Writer, r *WorkloadResult) {
	fmt.Fprintf(w, "Workload panel: %d generated workloads, %d queries over %d relations each (modeled clocks)\n",
		r.Instances, r.Queries, r.Relations)
	fmt.Fprintf(w, "%-26s %10s %10s %13s\n", "solver", "mean-cost", "gap-vs-opt", "time-to-best")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %10.3f %9.2f%% %13v\n",
			row.Solver, row.MeanCost, 100*row.MeanGap, row.TimeToBest)
	}
	fmt.Fprintf(w, "plan cache: %d requests over %d distinct shapes -> %d compile(s), %d hit(s) (%.0f%% hit rate)\n",
		r.Cache.Requests, r.Cache.DistinctShapes, r.Cache.Stats.Misses, r.Cache.Stats.Hits, 100*r.Cache.HitRate())
}

// Command mqo-bench regenerates the tables and figures of the paper's
// evaluation (Section 7). Each experiment prints the same rows or series
// the paper reports; QA times are modeled annealer time (376 µs per run),
// classical times are wall-clock. Interrupting the run (SIGINT) cancels
// the experiment cleanly.
//
// Usage:
//
//	mqo-bench -experiment all
//	mqo-bench -experiment fig4 -instances 20 -budget 100s   # paper protocol
//	mqo-bench -experiment table1 -instances 5 -budget 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/mqopt"
	"repro/mqopt/bench"
)

func main() {
	experiment := flag.String("experiment", "all", experiments)
	instances := flag.Int("instances", 3, "instances per class (paper: 20)")
	budget := flag.Duration("budget", 2*time.Second, "classical solver budget (paper: 100s)")
	runs := flag.Int("runs", 1000, "annealing runs per instance (paper: 1000)")
	seed := flag.Int64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for instances, solvers, and gauge batches (QA output is identical at any value)")
	portfolio := flag.String("portfolio", "",
		"comma-separated member solvers (qa, lin-mqo, lin-qub, climb, greedy, ga<population>); adds a portfolio column to the experiments")
	cache := flag.String("cache", "on",
		"compilation cache for QA solves: on|off (results are identical either way; off recompiles per solve)")
	flag.Parse()

	if *cache != "on" && *cache != "off" {
		fmt.Fprintf(os.Stderr, "mqo-bench: -cache must be on or off, got %q\n", *cache)
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Instances = *instances
	cfg.Budget = *budget
	cfg.QARuns = *runs
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	if *portfolio != "" {
		cfg.Portfolio = strings.Split(*portfolio, ",")
	}
	cfg.DisableCache = *cache == "off"

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg, *experiment, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mqo-bench:", err)
		os.Exit(1)
	}
}

// experiments is the -experiment help text: every name run accepts.
const experiments = "fig4|fig5|fig6|fig7|table1|topology|workload|cluster|session|autotune|all"

// topologyClass is the workload of the topology panel: 16 plans keep
// the complete-graph pattern within every kind's embedder envelope
// while the chain-length contrast (TRIAD vs greedy) stays visible.
var topologyClass = mqopt.Class{Queries: 8, PlansPerQuery: 2}

func run(ctx context.Context, cfg bench.Config, experiment string, w io.Writer) error {
	classFig4 := mqopt.Class{Queries: 537, PlansPerQuery: 2}
	classFig5 := mqopt.Class{Queries: 108, PlansPerQuery: 5}

	anytime := func(class mqopt.Class, figure string) (*bench.AnytimeResult, error) {
		fmt.Fprintf(w, "=== %s ===\n", figure)
		res, err := bench.RunAnytime(ctx, cfg, class)
		if err != nil {
			return nil, err
		}
		bench.RenderAnytime(w, res, bench.SolverNames(cfg))
		fmt.Fprintln(w)
		return res, nil
	}

	switch experiment {
	case "fig4":
		_, err := anytime(classFig4, "Figure 4 (537 queries, 2 plans)")
		return err
	case "fig5":
		_, err := anytime(classFig5, "Figure 5 (108 queries, 5 plans)")
		return err
	case "fig6":
		var results []*bench.AnytimeResult
		for _, class := range bench.PaperClasses {
			r, err := bench.RunAnytime(ctx, cfg, class)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		bench.RenderFig6(w, bench.RunFig6(results))
		return nil
	case "fig7":
		bench.RenderFig7(w, bench.RunFig7(bench.DefaultFig7Plans()))
		return nil
	case "topology":
		rows, err := bench.RunTopology(ctx, cfg, topologyClass)
		if err != nil {
			return err
		}
		bench.RenderTopology(w, topologyClass, rows)
		return nil
	case "workload":
		res, err := bench.RunWorkload(ctx, cfg)
		if err != nil {
			return err
		}
		bench.RenderWorkload(w, res)
		return nil
	case "cluster":
		res, err := bench.RunCluster(ctx, cfg, 3, 0, 0)
		if err != nil {
			return err
		}
		bench.RenderCluster(w, res)
		return nil
	case "session":
		res, err := bench.RunSession(ctx, cfg, 0, 0)
		if err != nil {
			return err
		}
		bench.RenderSession(w, res)
		return nil
	case "autotune":
		res, err := bench.RunAutotune(ctx, cfg)
		if err != nil {
			return err
		}
		bench.RenderAutotune(w, res)
		return nil
	case "table1":
		rows, err := bench.RunTable1(ctx, cfg, bench.PaperClasses)
		if err != nil {
			return err
		}
		bench.RenderTable1(w, rows)
		return nil
	case "all":
		var results []*bench.AnytimeResult
		for i, class := range bench.PaperClasses {
			r, err := anytime(class, fmt.Sprintf("Anytime class %d: %s", i+1, class))
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Fprintln(w, "=== Table 1 ===")
		rows, err := bench.RunTable1(ctx, cfg, bench.PaperClasses)
		if err != nil {
			return err
		}
		bench.RenderTable1(w, rows)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== Figure 6 ===")
		bench.RenderFig6(w, bench.RunFig6(results))
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== Figure 7 ===")
		bench.RenderFig7(w, bench.RunFig7(bench.DefaultFig7Plans()))
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== Topology panel (Chimera vs Pegasus vs Zephyr) ===")
		trows, err := bench.RunTopology(ctx, cfg, topologyClass)
		if err != nil {
			return err
		}
		bench.RenderTopology(w, topologyClass, trows)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== Workload panel (join-graph derived instances) ===")
		wres, err := bench.RunWorkload(ctx, cfg)
		if err != nil {
			return err
		}
		bench.RenderWorkload(w, wres)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== Cluster panel (consistent-hash router over worker nodes) ===")
		cres, err := bench.RunCluster(ctx, cfg, 3, 0, 0)
		if err != nil {
			return err
		}
		bench.RenderCluster(w, cres)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== Session panel (incremental warm-start vs from-scratch) ===")
		sres, err := bench.RunSession(ctx, cfg, 0, 0)
		if err != nil {
			return err
		}
		bench.RenderSession(w, sres)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "=== AutoTune panel (self-tuning portfolio scheduler) ===")
		ares, err := bench.RunAutotune(ctx, cfg)
		if err != nil {
			return err
		}
		bench.RenderAutotune(w, ares)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

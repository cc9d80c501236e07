// Package bench is the public facade over the experiment harness: it
// regenerates the tables and figures of the paper's evaluation
// (Section 7) without exposing internal packages. The types are aliases
// of the internal harness so results flow between the two without
// conversion; the only supported entry points for external code are the
// names exported here.
package bench

import (
	"context"
	"io"

	"repro/internal/harness"
	"repro/mqopt"
)

// Config parameterizes an experiment run: instances per class, the
// classical-solver observation window, annealing runs, seed, and GA
// population sizes.
type Config = harness.Config

// AnytimeResult holds one cost-versus-time figure (Figures 4 and 5).
type AnytimeResult = harness.AnytimeResult

// Table1Row aggregates time-to-optimal statistics for one class.
type Table1Row = harness.Table1Row

// Fig6Point relates embedding overhead to classical-solver speedup.
type Fig6Point = harness.Fig6Point

// Fig7Point reports annealer capacity per plans-per-query.
type Fig7Point = harness.Fig7Point

// TopologyRow is one row of the hardware-topology panel: one workload
// class solved on one topology kind with its native complete-graph
// pattern.
type TopologyRow = harness.TopologyRow

// WorkloadResult is the workload panel: annealer, greedy-join, and a
// portfolio of the two raced on workload-derived MQO instances, plus the
// Zipf-skewed plan-cache stream.
type WorkloadResult = harness.WorkloadResult

// WorkloadRow is one solver column of the workload panel.
type WorkloadRow = harness.WorkloadRow

// ClusterResult is the distributed-solve panel: a router over N
// in-process worker nodes serving an identical request stream at each
// node count, with responses checked byte-for-byte against a
// standalone baseline.
type ClusterResult = harness.ClusterResult

// ClusterRow is one node-count measurement of the cluster panel.
type ClusterRow = harness.ClusterRow

// SessionResult is the incremental-session panel: a workload evolving
// by ±1-query deltas, each epoch solved twice — warm-started in a live
// session versus from scratch — and compared on modeled time-to-best.
type SessionResult = harness.SessionResult

// SessionRow is one delta epoch of the session panel.
type SessionRow = harness.SessionRow

// AutotuneResult is the self-tuning panel: a Zipf-skewed request stream
// replayed through the per-shape-class bandit scheduler, reporting
// cumulative regret against the best-in-hindsight static arm and the
// tuned-versus-static time-to-best split.
type AutotuneResult = harness.AutotuneResult

// AutotuneRow is one request of the autotune panel's replayed stream.
type AutotuneRow = harness.AutotuneRow

// AutotuneArmStat summarises one arm of the autotune panel over the
// whole stream.
type AutotuneArmStat = harness.AutotuneArmStat

// PaperClasses are the four problem classes of the evaluation.
var PaperClasses = mqopt.PaperClasses

// DefaultConfig returns the offline defaults: 3 instances per class, a
// 2-second classical window, 1000 annealing runs.
func DefaultConfig() Config { return harness.DefaultConfig() }

// PaperConfig returns the paper's protocol: 20 instances per class and a
// 100-second observation window.
func PaperConfig() Config { return harness.PaperConfig() }

// RunAnytime executes the full solver set on every instance of class
// under cfg and samples the anytime curves at the paper's checkpoints.
// Cancelling ctx aborts the experiment with ctx.Err().
func RunAnytime(ctx context.Context, cfg Config, class mqopt.Class) (*AnytimeResult, error) {
	return cfg.RunAnytime(ctx, class)
}

// RunTable1 measures time-to-optimal for LIN-MQO on every class.
func RunTable1(ctx context.Context, cfg Config, classes []mqopt.Class) ([]Table1Row, error) {
	return cfg.RunTable1(ctx, classes)
}

// RunFig6 derives the speedup-versus-overhead points from anytime runs.
func RunFig6(results []*AnytimeResult) []Fig6Point { return harness.RunFig6(results) }

// RunFig7 computes annealer capacities for the given plans-per-query
// range (DefaultFig7Plans reproduces the paper's).
func RunFig7(plansRange []int) []Fig7Point { return harness.RunFig7(plansRange) }

// DefaultFig7Plans is the plans-per-query range of Figure 7.
func DefaultFig7Plans() []int { return harness.DefaultFig7Plans() }

// RunTopology executes the hardware-topology comparison: instances of
// class generated once, QA-solved on Chimera, Pegasus, and Zephyr at
// the same cell dimensions, reporting qubit footprint, chain length,
// broken-chain rate, and modeled time-to-best per kind.
func RunTopology(ctx context.Context, cfg Config, class mqopt.Class) ([]TopologyRow, error) {
	return cfg.RunTopology(ctx, class)
}

// RenderTopology writes the topology panel as text.
func RenderTopology(w io.Writer, class mqopt.Class, rows []TopologyRow) {
	harness.RenderTopology(w, class, rows)
}

// RunWorkload executes the workload panel: cfg.Instances generated
// join-graph workloads, derived into MQO instances and raced by the
// annealer, the greedy-join planner, and a portfolio of the two under
// modeled clocks, with a Zipf-skewed plan-cache stream alongside.
func RunWorkload(ctx context.Context, cfg Config) (*WorkloadResult, error) {
	return cfg.RunWorkload(ctx)
}

// RenderWorkload writes the workload panel as text.
func RenderWorkload(w io.Writer, r *WorkloadResult) { harness.RenderWorkload(w, r) }

// RunCluster executes the distributed-solve panel: in-process worker
// nodes behind a consistent-hash router, replaying one request stream
// at every node count from 1 to nodes and checking each routed
// response byte-for-byte against a standalone baseline. Non-positive
// arguments select 3 nodes, 12 shapes, 4 repeats.
func RunCluster(ctx context.Context, cfg Config, nodes, shapes, repeats int) (*ClusterResult, error) {
	return cfg.RunCluster(ctx, nodes, shapes, repeats)
}

// RenderCluster writes the cluster panel as text.
func RenderCluster(w io.Writer, r *ClusterResult) { harness.RenderCluster(w, r) }

// RunSession executes the incremental-session panel: an initial
// workload of `queries` queries, then `epochs` alternating ±1-query
// deltas, each applied to a warm-started session and re-solved from
// scratch for comparison. Non-positive arguments select 24 queries and
// 8 epochs. Results are deterministic at any cfg.Parallelism.
func RunSession(ctx context.Context, cfg Config, queries, epochs int) (*SessionResult, error) {
	return cfg.RunSession(ctx, queries, epochs)
}

// RenderSession writes the session panel as text.
func RenderSession(w io.Writer, r *SessionResult) { harness.RenderSession(w, r) }

// RunAutotune executes the self-tuning panel: a Zipf-skewed stream of
// workload-derived requests, the full (request × arm) reward grid
// evaluated under modeled clocks, and the UCB scheduler replayed
// sequentially over it. The rendered panel is byte-identical at any
// cfg.Parallelism.
func RunAutotune(ctx context.Context, cfg Config) (*AutotuneResult, error) {
	return cfg.RunAutotune(ctx)
}

// RenderAutotune writes the autotune panel as text.
func RenderAutotune(w io.Writer, r *AutotuneResult) { harness.RenderAutotune(w, r) }

// SolverNames lists the solver series of the anytime figures in
// presentation order.
func SolverNames(cfg Config) []string { return cfg.SolverNames() }

// RenderAnytime writes an anytime figure as text.
func RenderAnytime(w io.Writer, r *AnytimeResult, names []string) {
	harness.RenderAnytime(w, r, names)
}

// RenderTable1 writes Table 1 as text.
func RenderTable1(w io.Writer, rows []Table1Row) { harness.RenderTable1(w, rows) }

// RenderFig6 writes Figure 6 as text.
func RenderFig6(w io.Writer, points []Fig6Point) { harness.RenderFig6(w, points) }

// RenderFig7 writes Figure 7 as text.
func RenderFig7(w io.Writer, points []Fig7Point) { harness.RenderFig7(w, points) }

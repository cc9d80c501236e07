// Package core implements Algorithm 1 of the paper: solving a multiple
// query optimization problem on an (simulated) adiabatic quantum annealer.
//
//	lef ← LogicalMapping(M)        // MQO → logical energy formula (QUBO)
//	pef ← PhysicalMapping(lef)     // QUBO → qubit weights via embedding
//	bi  ← QuantumAnnealing(pef)    // annealing runs + read-outs
//	Xp  ← PhysicalMapping⁻¹(bi)    // chain read-out (majority vote)
//	Pe  ← LogicalMapping⁻¹(Xp)     // plan selection per query
//
// The annealer is a simulated device (internal/dwave) charging the paper's
// hardware timing constants to a modeled clock; everything else runs on
// the classical host exactly as in the paper.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/dwave"
	"repro/internal/embedding"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Pattern selects the physical mapping strategy.
type Pattern string

const (
	// PatternAuto tries the clustered pattern first, then the
	// topology's native complete-graph pattern: TRIAD on Chimera
	// (exactly the paper's pipeline), the greedy path embedder on the
	// denser kinds (falling back to TRIAD when greedy cannot place the
	// instance — TRIAD chains stay valid there because Pegasus and
	// Zephyr contain Chimera's couplers).
	PatternAuto Pattern = ""
	// PatternClustered forces the clustered pattern (Figure 3) and fails
	// when it cannot realize every coupling of the logical formula.
	PatternClustered Pattern = "clustered"
	// PatternTriad forces the general TRIAD pattern (Figure 2).
	PatternTriad Pattern = "triad"
	// PatternGreedy forces the greedy path-based complete-graph
	// embedder, which exploits the extra couplers of the denser
	// topologies for shorter chains.
	PatternGreedy Pattern = "greedy"
)

// Options configure the QuantumMQO pipeline. The zero value selects the
// paper's setup: a fault-free D-Wave 2X topology, classical simulated
// annealing as the hardware surrogate, 1000 runs in batches of 100 per
// gauge, and ε = 0.25 penalty slacks.
type Options struct {
	// Graph is the hardware topology; nil selects a fault-free D-Wave 2X
	// Chimera graph. Pegasus/Zephyr graphs (internal/topology) slot in
	// here unchanged — the pipeline only uses the Graph interface.
	Graph topology.Graph
	// Sampler is the annealing surrogate; nil selects simulated annealing.
	Sampler anneal.Sampler
	// Runs is the number of annealing runs; 0 selects the paper's 1000.
	Runs int
	// Epsilon is the penalty/chain-strength slack; 0 selects 0.25.
	Epsilon float64
	// DisablePostprocess turns off the classical descent applied to
	// read-outs with broken chains. Real D-Wave systems offer the same
	// optimization post-processing; here it also compensates for the
	// classical annealing surrogate leaving domain walls in long chains
	// that true quantum annealing would not.
	DisablePostprocess bool
	// DisableGauges samples in the identity gauge (gauge ablation).
	DisableGauges bool
	// UniformChainStrength, when positive, replaces Choi's per-chain
	// bound with a single global chain strength (chain-strength
	// ablation).
	UniformChainStrength float64
	// Pattern selects the embedding pattern; PatternAuto prefers the
	// clustered pattern and falls back to TRIAD.
	Pattern Pattern
	// Parallelism bounds how many gauge batches are sampled and decoded
	// concurrently; non-positive uses one worker per CPU. For a fixed
	// seed the result is bit-identical at every setting.
	Parallelism int
	// Cache, when non-nil, serves the compilation artifact (logical
	// mapping, embedding, physical formula, sampling program) from a
	// shared content-addressed cache instead of rebuilding it per solve.
	// Results are bit-identical with and without a cache; only
	// wall-clock changes. Decomposed solves pass the cache down to every
	// window.
	Cache *CompileCache
	// OnImprovement, if non-nil, observes every incumbent improvement as
	// it is recorded into the result trace, in nonincreasing cost order.
	OnImprovement func(trace.Point)
	// WarmStart, when non-nil, must be a valid plan selection for the
	// problem; every annealing run then starts from its chain-expanded
	// packed spin state instead of a uniform draw (reverse annealing on
	// hardware; anneal.WarmSampler on the surrogate). Samplers that
	// cannot warm-start fall back to cold runs. The compile artifact —
	// and therefore the cache key — is unaffected.
	WarmStart mqo.Solution
}

func (o Options) withDefaults() Options {
	if o.Graph == nil {
		o.Graph = topology.DWave2X(0, 0)
	}
	if o.Sampler == nil {
		o.Sampler = dwave.DefaultSampler()
	}
	if o.Runs <= 0 {
		o.Runs = dwave.PaperTotalRuns
	}
	if o.Epsilon <= 0 {
		o.Epsilon = logical.DefaultEpsilon
	}
	return o
}

// Result is the outcome of a QuantumMQO invocation together with the
// artifacts the evaluation reports on.
type Result struct {
	// Solution is the best decoded plan selection.
	Solution mqo.Solution
	// Cost is its execution cost C(Pe).
	Cost float64
	// Trace records best-cost-so-far against modeled annealer time
	// (376 µs per run as in Section 7.1).
	Trace trace.Trace
	// QubitsUsed is the number of physical qubits consumed.
	QubitsUsed int
	// QubitsPerVariable is the embedding overhead (x-axis of Figure 6).
	QubitsPerVariable float64
	// MaxChainLength is the longest qubit chain of the embedding — the
	// chains most exposed to read-out breakage.
	MaxChainLength int
	// PreprocessTime is the wall time of the logical and physical
	// mappings (the paper reports 112-135 ms per test case).
	PreprocessTime time.Duration
	// Runs is the number of annealing runs performed.
	Runs int
	// BrokenChainRate is the fraction of read-outs with at least one
	// inconsistent chain.
	BrokenChainRate float64
	// UsedTriadFallback reports that the clustered pattern could not
	// realize the instance and the general TRIAD pattern was used.
	UsedTriadFallback bool
}

// readout is one decoded annealing run: its cost (when the read-out
// decoded to a valid solution) at its modeled completion time.
type readout struct {
	elapsed time.Duration
	cost    float64
	ok      bool
	broken  bool
}

// batchResult is everything one gauge batch contributes to the merge:
// its per-run read-outs in run order plus the batch incumbent (the
// earliest run achieving the batch's minimal cost).
type batchResult struct {
	outs     []readout
	bestSol  mqo.Solution
	bestCost float64
	have     bool
}

// solveScratch is the per-worker decode arena: the device sampling
// scratch plus every buffer the read-out→solution path needs (physical
// bits, logical bits, decoded solution, plan-selection mask). One worker
// owns it at a time; each read-out is decoded in place and discarded,
// with the batch incumbent copied out only on strict improvement.
type solveScratch struct {
	dw       dwave.Scratch
	bits     []bool
	logical  []bool
	sol      mqo.Solution
	selected []bool
}

// grow sizes the decode buffers (idempotent once sized).
func (sc *solveScratch) grow(nPhys, nLogical, nQueries, nPlans int) {
	if cap(sc.bits) < nPhys {
		sc.bits = make([]bool, nPhys)
	}
	sc.bits = sc.bits[:nPhys]
	if cap(sc.logical) < nLogical {
		sc.logical = make([]bool, nLogical)
	}
	sc.logical = sc.logical[:nLogical]
	if cap(sc.sol) < nQueries {
		sc.sol = make(mqo.Solution, nQueries)
	}
	sc.sol = sc.sol[:nQueries]
	if cap(sc.selected) < nPlans {
		sc.selected = make([]bool, nPlans)
	}
	sc.selected = sc.selected[:nPlans]
}

// QuantumMQO solves an MQO problem on the simulated annealer. Gauge
// batches are sampled and decoded concurrently under opt.Parallelism,
// each from a private random stream split off seed, and merged back in
// run order — so the incumbent trace, solution, and modeled clock are
// bit-identical at any worker count. It checks ctx between batches: a
// cancelled context aborts the remaining runs, returning the partial
// result when at least one run decoded (with a nil error) and
// (nil, ctx.Err()) otherwise.
func QuantumMQO(ctx context.Context, p *mqo.Problem, opt Options, seed int64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()

	// The compile step — logical mapping, minor embedding, physical
	// expansion, CSR program — either runs here or is served from the
	// shared content-addressed cache; the artifact is frozen and
	// identical either way.
	var comp *Compiled
	var err error
	if opt.Cache != nil {
		comp, err = opt.Cache.compiled(ctx, p, opt)
	} else {
		comp, err = compile(p, opt)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		QubitsUsed:        comp.QubitsUsed,
		QubitsPerVariable: comp.QubitsPerVariable,
		MaxChainLength:    comp.MaxChainLength,
		PreprocessTime:    comp.PrepTime,
		Runs:              opt.Runs,
		UsedTriadFallback: comp.UsedTriadFallback,
	}
	if opt.OnImprovement != nil {
		res.Trace.Observe(opt.OnImprovement)
	}
	device := dwave.NewDeviceFor(opt.Graph.Kind(), opt.Sampler)
	device.DisableGauges = opt.DisableGauges
	if opt.WarmStart != nil {
		warm, werr := WarmWords(comp, p, opt.WarmStart)
		if werr != nil {
			return nil, werr
		}
		device.Warm = warm
	}
	batches := device.Batches(opt.Runs, seed)
	original := comp.Program

	broken := 0
	bestCost := 0.0
	haveBest := false
	performed := 0
	// Fan out: each worker samples one gauge batch AND decodes its
	// read-outs (chain majority vote, descents, cost) — the whole hot
	// path scales with cores. Every read-out streams through the
	// worker's arena (sampler scratch, bit/solution buffers):
	// decode-then-discard, with the batch incumbent copied out of the
	// buffers only on strict improvement. Merge: batch results return in
	// run order, so recording them sequentially yields a single
	// nondecreasing modeled-time trace and OnImprovement still streams
	// strictly improving incumbents.
	scratches := make([]solveScratch, exec.Parallelism(opt.Parallelism))
	ferr := exec.ForEachOrdered(ctx, opt.Parallelism, len(batches),
		func(tctx context.Context, i int) (*batchResult, error) {
			sc := &scratches[exec.WorkerID(tctx)]
			sc.grow(original.N, comp.QUBO.N(), p.NumQueries(), p.NumPlans())
			br := &batchResult{outs: make([]readout, 0, batches[i].Runs)}
			device.StreamBatch(tctx, nil, original, batches[i], &sc.dw, func(s dwave.Readout) bool {
				sol, broken := comp.decode(p, s.Words, sc, !opt.DisablePostprocess)
				ro := readout{elapsed: s.Elapsed, broken: broken}
				if cost, cerr := p.CostWith(sol, sc.selected); cerr == nil {
					ro.ok = true
					ro.cost = cost
					if !br.have || cost < br.bestCost {
						br.have = true
						br.bestCost = cost
						br.bestSol = append(br.bestSol[:0], sol...)
					}
				} // else: repair failed; skip the read-out
				br.outs = append(br.outs, ro)
				return true
			})
			return br, nil
		},
		func(_ int, br *batchResult) bool {
			for _, ro := range br.outs {
				performed++
				if ro.broken {
					broken++
				}
				if ro.ok {
					res.Trace.Record(ro.elapsed, ro.cost)
				}
			}
			if br.have && (!haveBest || br.bestCost < bestCost) {
				bestCost = br.bestCost
				res.Solution = br.bestSol
				res.Cost = br.bestCost
				haveBest = true
			}
			return ctx.Err() == nil
		})
	if ferr != nil && ctx.Err() == nil {
		// A worker failure that is not a cancellation (e.g. a captured
		// panic) invalidates the run even if a prefix decoded.
		return nil, ferr
	}
	if !haveBest {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: no annealing run produced a decodable solution")
	}
	res.Runs = performed
	res.BrokenChainRate = float64(broken) / float64(performed)
	return res, nil
}

// decode turns one packed read-out into a plan selection of p, the
// caller's problem, in sc's buffers: unpack the physical bits, read each
// chain by majority vote, and — when postprocess is set — descend on the
// logical formula, decode and repair, and descend over plan swaps. It
// reports whether any chain was broken. The returned solution aliases
// sc.sol, and sc.selected holds its plan mask.
func (comp *Compiled) decode(p *mqo.Problem, words []uint64, sc *solveScratch, postprocess bool) (sol mqo.Solution, broken bool) {
	anneal.UnpackBits(words, sc.bits)
	comp.Phys.UnembedInto(sc.bits, sc.logical)
	broken = comp.Phys.BrokenChains(sc.bits) > 0
	if postprocess {
		// Single-bit descent on the logical formula removes
		// majority-vote artifacts of broken chains (a domain wall
		// inside a chain is single-flip stable at the physical level,
		// so descending there would not help).
		comp.QUBO.FirstImprovementDescent(sc.logical, 16)
	}
	sol = p.RepairWith(p.SolutionFromVectorInto(sc.logical, sc.sol), sc.selected)
	if postprocess {
		// Optimization post-processing as offered by the production
		// device API: local search over plan swaps on the decoded
		// solution. Penalty terms put barriers of height ≈ wM between
		// valid selections, which quantum tunneling crosses but the
		// classical sampling surrogate cannot; the swap descent
		// restores the read-out quality the paper reports for hardware
		// (final gaps well under 1%).
		swapDescentWith(p, sol, sc.selected)
	}
	return sol, broken
}

// WarmWords encodes a valid MQO solution as the packed physical spin
// state of the compiled artifact: plan selection → logical QUBO bits →
// chain-consistent physical bits → packed spins in anneal's convention
// (bit set ⇔ spin −1; ising.SpinsToBits maps x = (1+s)/2, so a set
// logical bit is spin +1 and its word bit stays clear).
func WarmWords(comp *Compiled, p *mqo.Problem, sol mqo.Solution) ([]uint64, error) {
	if !p.Valid(sol) {
		return nil, fmt.Errorf("core: warm-start solution is not a valid plan selection")
	}
	phys := comp.Phys.Embed(p.SelectionVector(sol))
	words := make([]uint64, anneal.WordsFor(len(phys)))
	for i, on := range phys {
		if !on {
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return words, nil
}

// swapDescentWith runs first-improvement local search over single-query
// plan swaps until a local optimum is reached, mutating sol in place.
// selected is the caller's selection scratch (one entry per plan,
// contents overwritten).
func swapDescentWith(p *mqo.Problem, sol mqo.Solution, selected []bool) {
	for i := range selected {
		selected[i] = false
	}
	for _, pl := range sol {
		if pl >= 0 {
			selected[pl] = true
		}
	}
	delta := func(q, cand int) float64 {
		cur := sol[q]
		d := p.Costs[cand] - p.Costs[cur]
		for _, sv := range p.SavingsOf(cur) {
			other := sv.P1
			if other == cur {
				other = sv.P2
			}
			if other != cand && selected[other] {
				d += sv.Value
			}
		}
		for _, sv := range p.SavingsOf(cand) {
			other := sv.P1
			if other == cand {
				other = sv.P2
			}
			if other != cur && selected[other] {
				d -= sv.Value
			}
		}
		return d
	}
	for {
		improved := false
		for q := range sol {
			for _, cand := range p.QueryPlans[q] {
				if cand == sol[q] {
					continue
				}
				if delta(q, cand) < -1e-9 {
					selected[sol[q]] = false
					selected[cand] = true
					sol[q] = cand
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// EmbedProblem chooses the physical mapping for an MQO instance according
// to pattern. With PatternAuto it uses the clustered pattern (Figure 3)
// when it realizes every coupling of the logical formula, otherwise the
// topology's native complete-graph pattern: TRIAD (Figure 2) on Chimera
// — exactly the paper's pipeline — and the greedy path embedder on the
// denser kinds, with TRIAD as the final fallback (Pegasus/Zephyr contain
// Chimera's couplers, so TRIAD chains stay valid there). The clustered
// and TRIAD patterns need the topology's cell structure
// (topology.CellGrid); forcing them on a non-cellular graph fails.
// PatternClustered, PatternTriad, and PatternGreedy force one strategy
// and fail when it cannot realize the instance. The returned embedding
// indexes chains by plan id; the bool reports whether the
// complete-graph pattern was chosen as a fallback from the clustered
// pattern.
func EmbedProblem(g topology.Graph, p *mqo.Problem, mapping *logical.Mapping, pattern Pattern) (*embedding.Embedding, bool, error) {
	cg, cellular := g.(topology.CellGrid)
	if pattern == PatternAuto || pattern == PatternClustered {
		if cellular {
			if emb, err := clusteredByPlan(cg, p); err == nil {
				if mapping.QUBO.N() == emb.NumVariables() && emb.Validate(mapping.QUBO) == nil {
					return emb, false, nil
				}
			} else if pattern == PatternClustered {
				return nil, false, fmt.Errorf("core: clustered pattern cannot realize the instance: %w", err)
			}
		}
		if pattern == PatternClustered {
			if !cellular {
				return nil, false, fmt.Errorf("core: clustered pattern needs a cell-structured topology, %s is not one", g.Kind())
			}
			return nil, false, fmt.Errorf("core: clustered pattern cannot realize every coupling of the instance")
		}
	}
	emb, err := completeGraphEmbedding(g, cg, cellular, p.NumPlans(), pattern)
	if err != nil {
		return nil, false, fmt.Errorf("core: instance does not fit the annealer: %w", err)
	}
	if err := emb.Validate(mapping.QUBO); err != nil {
		return nil, false, err
	}
	return emb, pattern == PatternAuto, nil
}

// completeGraphEmbedding builds the K_n embedding pattern for the
// topology: forced TRIAD or greedy when the caller demanded one, and
// for PatternAuto the topology's native choice — TRIAD on Chimera
// (byte-identical to the paper's pipeline), greedy-then-TRIAD on the
// denser kinds.
func completeGraphEmbedding(g topology.Graph, cg topology.CellGrid, cellular bool, n int, pattern Pattern) (*embedding.Embedding, error) {
	triad := func() (*embedding.Embedding, error) {
		if !cellular {
			return nil, fmt.Errorf("TRIAD pattern needs a cell-structured topology, %s is not one", g.Kind())
		}
		return embedding.Triad(cg, n)
	}
	switch {
	case pattern == PatternTriad:
		return triad()
	case pattern == PatternGreedy:
		return embedding.Greedy(g, n)
	case g.Kind() == topology.ChimeraKind && cellular:
		return triad()
	default:
		emb, err := embedding.Greedy(g, n)
		if err == nil || !cellular {
			return emb, err
		}
		return triad()
	}
}

// clusteredByPlan builds the clustered embedding and permutes its chains
// from cluster-major variable order into plan-id order.
func clusteredByPlan(g topology.CellGrid, p *mqo.Problem) (*embedding.Embedding, error) {
	// Group queries by cluster, preserving query order within clusters.
	clusterQueries := map[int][]int{}
	var clusterIDs []int
	for q := 0; q < p.NumQueries(); q++ {
		c := p.ClusterOf(q)
		if _, seen := clusterQueries[c]; !seen {
			clusterIDs = append(clusterIDs, c)
		}
		clusterQueries[c] = append(clusterQueries[c], q)
	}
	sizes := make([]int, len(clusterIDs))
	for i, c := range clusterIDs {
		for _, q := range clusterQueries[c] {
			sizes[i] += len(p.QueryPlans[q])
		}
	}
	emb, err := embedding.Clustered(g, sizes)
	if err != nil {
		return nil, err
	}
	// Chain i of the clustered embedding corresponds to the i-th plan in
	// cluster-major, query-major, plan-major order; re-index by plan id.
	chains := make([]embedding.Chain, p.NumPlans())
	v := 0
	for _, c := range clusterIDs {
		for _, q := range clusterQueries[c] {
			for _, pl := range p.QueryPlans[q] {
				chains[pl] = emb.Chains[v]
				v++
			}
		}
	}
	return embedding.NewEmbedding(g, chains)
}

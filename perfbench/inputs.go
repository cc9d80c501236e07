package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/splitmix"
	"repro/mqopt"
	"repro/mqopt/cluster"
)

// Workload names.
const (
	serveWarm     = "serve-warm"
	serveChurn    = "serve-churn"
	paperAnneal   = "paper-anneal"
	routedSession = "routed-session"
)

// spec fixes how one workload is served and driven.
type spec struct {
	// conns is the number of closed-loop client connections.
	conns int
	// rate is the nominal operation rate on a 2-core host: a run times
	// rate × --seconds operations, a fixed count, so the tail percentile
	// and its sample count do not depend on how fast the tree under test
	// happens to be.
	rate float64
	// par is the parallelism each solve gets in the timed run; the
	// traced replay solves at the same setting.
	par int
	// routed puts a router in front of two workers.
	routed bool
}

var specs = map[string]spec{
	serveWarm:     {conns: 2, rate: 120, par: 1},
	serveChurn:    {conns: 2, rate: 130, par: 1},
	paperAnneal:   {conns: 1, rate: 2.7, par: 2},
	routedSession: {conns: 2, rate: 170, par: 2, routed: true},
}

// workloadNames lists the workloads in documentation order.
var workloadNames = []string{serveWarm, serveChurn, paperAnneal, routedSession}

// Generation sizes.
const (
	warmTemplates   = 64  // serve-warm request templates
	warmZipfS       = 1.1 // serve-warm template popularity skew
	warmRuns        = 50  // serve-warm annealing runs (as a modeled budget)
	churnWarmPool   = 800 // serve-churn instances available to warm-up
	churnRuns       = 10
	churnSweeps     = 16
	paperPerClass   = 2 // paper-anneal pool instances per paper class
	sessionQueries  = 24
	sessionDeltas   = 10
	sessionRuns     = 20 // annealing runs per session window
	sessionWarmCycs = 2  // routed-session warm-up cycles (one per connection)
)

// solveItem is one distinct POST /solve body plus what the checks and
// the traced replay need to know about it.
type solveItem struct {
	body  []byte
	req   cluster.SolveRequest
	group int            // template index on serve-warm, else -1
	prob  *mqopt.Problem // the instance the server solves
	opt   float64        // exact optimum; NaN when it cannot be computed
}

// call is one request of a solve stream.
type call struct {
	it     *solveItem
	stream bool
}

// sessState is the benchmark's own mirror of a session workload after
// one epoch: the reference the server's epoch is checked against.
type sessState struct {
	ids     []string
	costs   map[string][]float64
	savings []mqopt.SessionSaving
	fp      uint64
	prob    *mqopt.Problem
	opt     float64
}

// cycle is one routed-session life: create, deltas, delete.
type cycle struct {
	id      string
	create  []byte
	deltas  [][]byte
	mirrors []*sessState // one per epoch: create, then each delta
	cfg     mqopt.SessionConfig
}

// ops is the number of HTTP operations one cycle performs.
func (c *cycle) ops() int { return 2 + len(c.deltas) }

// inputs is everything a run sends, generated before any server starts.
type inputs struct {
	warm   []call // warm-up stream
	timed  []call // timed stream
	cycles []*cycle
	// warmCycles is how many leading cycles belong to warm-up.
	warmCycles int
}

// generate builds a workload's full request stream and reference optima
// from seed, using only the facade generators. n is the number of timed
// operations.
func generate(workload string, seed int64, n int) (*inputs, error) {
	switch workload {
	case serveWarm:
		return genWarm(seed, n)
	case serveChurn:
		return genChurn(seed, n)
	case paperAnneal:
		return genPaper(seed, n)
	case routedSession:
		return genSessions(seed, n)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// sub derives the i-th independent sub-seed of seed.
func sub(seed int64, i int) int64 { return splitmix.Split(seed, int64(i)) }

// problemItem wraps a generated instance as a /solve item.
func problemItem(p *mqopt.Problem, req cluster.SolveRequest, group int) (*solveItem, error) {
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return nil, err
	}
	req.Problem = compact.Bytes()
	return newItem(p, req, group)
}

func newItem(p *mqopt.Problem, req cluster.SolveRequest, group int) (*solveItem, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	it := &solveItem{body: body, req: req, group: group, prob: p, opt: math.NaN()}
	if _, opt, err := p.Optimum(); err == nil {
		it.opt = opt
	}
	return it, nil
}

func seedPtr(s int64) *int64 { return &s }

// modeledBudget renders a run count as the modeled device budget string.
func modeledBudget(runs int) string { return mqopt.ModeledAnnealingBudget(runs).String() }

// warmLayoutSeed fixes which serve-warm template has which size and
// kind. Only instance contents and the request stream follow the run
// seed, so every seed loads the server alike and seed-to-seed spread
// measures the program rather than the draw.
const warmLayoutSeed = 20160901

// genWarm builds serve-warm: 64 templates drawn Zipf(1.1), template 0
// the most popular. One in eight templates is a join-graph workload
// raced by a qa + greedy-join portfolio; the rest are Chimera-embeddable
// instances of 8–50 queries × 2–4 plans solved by qa. About one request
// in four streams.
func genWarm(seed int64, n int) (*inputs, error) {
	layout := rand.New(rand.NewSource(warmLayoutSeed))
	joinAt := map[int]bool{}
	for _, t := range layout.Perm(warmTemplates)[:warmTemplates/8] {
		joinAt[t] = true
	}
	templates := make([]*solveItem, warmTemplates)
	for t := range templates {
		class := mqopt.Class{Queries: 8 + layout.Intn(43), PlansPerQuery: 2 + layout.Intn(3)}
		joinQueries := 6 + layout.Intn(3)
		s := sub(seed, t)
		var (
			it  *solveItem
			err error
		)
		if joinAt[t] {
			it, err = workloadItem(s, joinQueries, t)
		} else {
			var p *mqopt.Problem
			if p, err = mqopt.GenerateEmbeddable(s, nil, class, mqopt.GeneratorConfig{}); err == nil {
				it, err = problemItem(p, cluster.SolveRequest{
					Solver: "qa", Seed: seedPtr(s & 0xffff), Budget: modeledBudget(warmRuns),
				}, t)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("serve-warm template %d: %w", t, err)
		}
		templates[t] = it
	}
	in := &inputs{}
	for _, it := range templates {
		in.warm = append(in.warm, call{it: it})
	}
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, warmZipfS, 1, warmTemplates-1)
	for i := 0; i < n; i++ {
		in.timed = append(in.timed, call{it: templates[zipf.Uint64()], stream: r.Intn(4) == 0})
	}
	return in, nil
}

// workloadItem generates a join-graph workload request raced by a
// qa + greedy-join portfolio.
func workloadItem(s int64, queries, group int) (*solveItem, error) {
	wl, err := mqopt.GenerateWorkload(s, mqopt.WorkloadGenConfig{Queries: queries})
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := wl.WriteText(&text); err != nil {
		return nil, err
	}
	return newItem(wl.Problem(), cluster.SolveRequest{
		Workload: text.String(), Solver: "portfolio", Members: []string{"qa", "greedy-join"},
		Seed: seedPtr(s & 0xffff), Budget: modeledBudget(warmRuns),
	}, group)
}

// churnItem generates one never-repeating serve-churn instance: 40%
// Chimera-embeddable (clustered pattern), 40% generic on Chimera (the
// clustered pattern fails, TRIAD takes over), 20% generic on Pegasus or
// Zephyr small enough for the greedy embedder. Anneal effort is low so
// compile dominates.
func churnItem(s int64) (*solveItem, error) {
	r := rand.New(rand.NewSource(s))
	req := cluster.SolveRequest{Solver: "qa", Seed: seedPtr(s & 0xffff), Runs: churnRuns, Sweeps: churnSweeps}
	var p *mqopt.Problem
	switch u := r.Float64(); {
	case u < 0.4:
		class := mqopt.Class{Queries: 20 + r.Intn(89), PlansPerQuery: 2 + r.Intn(4)}
		var err error
		if p, err = mqopt.GenerateEmbeddable(s, nil, class, mqopt.GeneratorConfig{}); err != nil {
			return nil, err
		}
	case u < 0.8:
		// TRIAD holds at most 48 variables on the 12×12 graph.
		plans := 2 + r.Intn(3)
		p = mqopt.Generate(s, mqopt.Class{Queries: 8 + r.Intn(48/plans-7), PlansPerQuery: plans}, mqopt.GeneratorConfig{})
	default:
		// The greedy embedder places up to 16 variables on both kinds.
		req.Topology = []string{"pegasus", "zephyr"}[r.Intn(2)]
		p = mqopt.Generate(s, mqopt.Class{Queries: 5 + r.Intn(4), PlansPerQuery: 2}, mqopt.GeneratorConfig{})
	}
	return problemItem(p, req, -1)
}

// genChurn builds serve-churn: every request is an instance the server
// has never seen. The first churnWarmPool instances are warm-up stock
// (each setup replays them until the cache evicts); the timed stream
// follows with fresh ones.
func genChurn(seed int64, n int) (*inputs, error) {
	// Item i depends on i alone, so the stream is the same at any
	// parallelism.
	items, err := exec.Map(context.Background(), 2, churnWarmPool+n, func(_ context.Context, i int) (*solveItem, error) {
		return churnItem(sub(seed, i))
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for i, it := range items {
		if i < churnWarmPool {
			in.warm = append(in.warm, call{it: it})
		} else {
			in.timed = append(in.timed, call{it: it})
		}
	}
	return in, nil
}

// genPaper builds paper-anneal: a small pool per paper class, all
// embeddable on the D-Wave 2X graph, solved with the paper protocol
// (default budget: 1000 runs in 10 gauge batches). Warm-up compiles
// every pool instance with a single run; every timed request carries its
// own seed.
func genPaper(seed int64, n int) (*inputs, error) {
	var pool []*mqopt.Problem
	for ci, class := range mqopt.PaperClasses {
		for k := 0; k < paperPerClass; k++ {
			p, err := mqopt.GenerateEmbeddable(sub(seed, ci*paperPerClass+k), nil, class, mqopt.GeneratorConfig{})
			if err != nil {
				return nil, fmt.Errorf("paper-anneal class %v: %w", class, err)
			}
			pool = append(pool, p)
		}
	}
	in := &inputs{}
	var opts []float64
	for k, p := range pool {
		it, err := problemItem(p, cluster.SolveRequest{Solver: "qa", Seed: seedPtr(1), Runs: 1}, k)
		if err != nil {
			return nil, err
		}
		opts = append(opts, it.opt)
		in.warm = append(in.warm, call{it: it})
	}
	for i := 0; i < n; i++ {
		k := i % len(pool)
		req := cluster.SolveRequest{Solver: "qa", Seed: seedPtr(sub(seed, 1000+i) & 0xffffff)}
		it := &solveItem{req: req, group: k, prob: pool[k], opt: opts[k]}
		// The problem bytes are shared with the warm-up item.
		it.req.Problem = in.warm[k].it.req.Problem
		body, err := json.Marshal(it.req)
		if err != nil {
			return nil, err
		}
		it.body = body
		in.timed = append(in.timed, call{it: it})
	}
	return in, nil
}

// instanceJSON is the wire form of a generated instance.
type instanceJSON struct {
	QueryPlans [][]int        `json:"queryPlans"`
	Costs      []float64      `json:"costs"`
	Savings    []mqopt.Saving `json:"savings"`
}

// genSessions builds routed-session: each cycle creates a session of 24
// chain-linked queries, applies 10 alternating ±1-query deltas (append a
// query linked to the tail, retire the head), then deletes it. Savings
// only link consecutive queries, so every epoch's exact optimum is a
// chain DP.
func genSessions(seed int64, n int) (*inputs, error) {
	in := &inputs{warmCycles: sessionWarmCycs}
	perCycle := 2 + sessionDeltas
	total := sessionWarmCycs + (n+perCycle-1)/perCycle
	for c := 0; c < total; c++ {
		cy, err := sessionCycle(sub(seed, 5000+c), c)
		if err != nil {
			return nil, fmt.Errorf("session cycle %d: %w", c, err)
		}
		in.cycles = append(in.cycles, cy)
	}
	return in, nil
}

func sessionCycle(s int64, c int) (*cycle, error) {
	r := rand.New(rand.NewSource(s))
	nq := sessionQueries + (sessionDeltas+1)/2
	p := mqopt.Generate(s, mqopt.Class{Queries: nq, PlansPerQuery: 2 + r.Intn(2)}, mqopt.GeneratorConfig{})
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		return nil, err
	}
	var inst instanceJSON
	if err := json.Unmarshal(buf.Bytes(), &inst); err != nil {
		return nil, err
	}
	qid := func(q int) string { return fmt.Sprintf("c%d-q%d", c, q) }
	planOf := make(map[int][2]int) // global plan -> (query, local index)
	for q, plans := range inst.QueryPlans {
		for i, pl := range plans {
			planOf[pl] = [2]int{q, i}
		}
	}
	spec := func(q int) mqopt.SessionQuery {
		costs := make([]float64, len(inst.QueryPlans[q]))
		for i, pl := range inst.QueryPlans[q] {
			costs[i] = inst.Costs[pl]
		}
		return mqopt.SessionQuery{ID: qid(q), Costs: costs}
	}
	// savingsInto lists the savings whose later query is q (the generator
	// links q-1 and q only).
	savingsInto := func(q int) []mqopt.SessionSaving {
		var out []mqopt.SessionSaving
		for _, sv := range inst.Savings {
			a, b := planOf[sv.P1], planOf[sv.P2]
			if a[0] > b[0] {
				a, b = b, a
			}
			if b[0] == q && a[0] == q-1 {
				out = append(out, mqopt.SessionSaving{Q1: qid(a[0]), P1: a[1], Q2: qid(b[0]), P2: b[1], Value: sv.Value})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].P1 != out[j].P1 {
				return out[i].P1 < out[j].P1
			}
			return out[i].P2 < out[j].P2
		})
		return out
	}

	cy := &cycle{cfg: mqopt.SessionConfig{Seed: s & 0xffffff, Runs: sessionRuns}}
	var init mqopt.SessionDelta
	for q := 0; q < sessionQueries; q++ {
		init.AddQueries = append(init.AddQueries, spec(q))
		if q > 0 {
			init.AddSavings = append(init.AddSavings, savingsInto(q)...)
		}
	}
	st := (&sessState{costs: map[string][]float64{}}).apply(init)
	if err := st.finish(); err != nil {
		return nil, err
	}
	cy.mirrors = append(cy.mirrors, st)
	next := sessionQueries
	for d := 0; d < sessionDeltas; d++ {
		var delta mqopt.SessionDelta
		if d%2 == 0 {
			delta.AddQueries = []mqopt.SessionQuery{spec(next)}
			delta.AddSavings = savingsInto(next)
			next++
		} else {
			delta.RemoveQueries = []string{st.ids[0]}
		}
		st = st.apply(delta)
		if err := st.finish(); err != nil {
			return nil, err
		}
		body, err := json.Marshal(cluster.SessionDeltaRequest{Delta: &delta})
		if err != nil {
			return nil, err
		}
		cy.deltas = append(cy.deltas, body)
		cy.mirrors = append(cy.mirrors, st)
	}

	id, err := cluster.SessionID(cy.cfg, init, "")
	if err != nil {
		return nil, err
	}
	cy.id = id
	if cy.create, err = json.Marshal(cluster.SessionCreateRequest{Config: &cy.cfg, Delta: &init}); err != nil {
		return nil, err
	}
	return cy, nil
}

// apply returns the mirrored workload after d, following the session's
// own rules: removals drop incident savings and keep order, additions
// append.
func (st *sessState) apply(d mqopt.SessionDelta) *sessState {
	out := &sessState{costs: map[string][]float64{}}
	gone := map[string]bool{}
	for _, id := range d.RemoveQueries {
		gone[id] = true
	}
	for _, id := range st.ids {
		if !gone[id] {
			out.ids = append(out.ids, id)
			out.costs[id] = st.costs[id]
		}
	}
	for _, sv := range st.savings {
		if !gone[sv.Q1] && !gone[sv.Q2] {
			out.savings = append(out.savings, sv)
		}
	}
	for _, q := range d.AddQueries {
		out.ids = append(out.ids, q.ID)
		out.costs[q.ID] = q.Costs
	}
	out.savings = append(out.savings, d.AddSavings...)
	return out
}

// finish computes the mirror's fingerprint, problem and exact optimum.
func (st *sessState) finish() error {
	flat := mqopt.SessionDelta{AddSavings: st.savings}
	base := map[string]int{}
	var (
		queryPlans [][]int
		costs      []float64
	)
	for _, id := range st.ids {
		flat.AddQueries = append(flat.AddQueries, mqopt.SessionQuery{ID: id, Costs: st.costs[id]})
		base[id] = len(costs)
		var plans []int
		for _, c := range st.costs[id] {
			plans = append(plans, len(costs))
			costs = append(costs, c)
		}
		queryPlans = append(queryPlans, plans)
	}
	fp, err := mqopt.SessionInitFingerprint(flat)
	if err != nil {
		return err
	}
	var savings []mqopt.Saving
	for _, sv := range st.savings {
		a, b := base[sv.Q1]+sv.P1, base[sv.Q2]+sv.P2
		if a > b {
			a, b = b, a
		}
		savings = append(savings, mqopt.Saving{P1: a, P2: b, Value: sv.Value})
	}
	p, err := mqopt.NewProblem(queryPlans, costs, savings)
	if err != nil {
		return err
	}
	_, opt, err := p.Optimum()
	if err != nil {
		return err
	}
	st.fp, st.prob, st.opt = fp, p, opt
	return nil
}

// costOf prices a session epoch's plan choice on the mirror: one plan
// per query, each index in range, cost = plans − realized savings.
func (st *sessState) costOf(plans map[string]int) (float64, error) {
	if len(plans) != len(st.ids) {
		return 0, fmt.Errorf("epoch chose plans for %d queries, workload has %d", len(plans), len(st.ids))
	}
	total := 0.0
	for _, id := range st.ids {
		i, ok := plans[id]
		if !ok || i < 0 || i >= len(st.costs[id]) {
			return 0, fmt.Errorf("query %s has no valid plan (%d)", id, i)
		}
		total += st.costs[id][i]
	}
	for _, sv := range st.savings {
		if plans[sv.Q1] == sv.P1 && plans[sv.Q2] == sv.P2 {
			total -= sv.Value
		}
	}
	return total, nil
}

// encodeInputs renders the whole stream canonically (the determinism
// test compares these bytes across generations).
func encodeInputs(in *inputs) []byte {
	var buf bytes.Buffer
	for _, c := range in.warm {
		fmt.Fprintf(&buf, "w %v %s\n", c.stream, c.it.body)
	}
	for _, c := range in.timed {
		fmt.Fprintf(&buf, "t %v %s %v\n", c.stream, c.it.body, c.it.opt)
	}
	for _, cy := range in.cycles {
		fmt.Fprintf(&buf, "c %s %s\n", cy.id, cy.create)
		for i, d := range cy.deltas {
			fmt.Fprintf(&buf, "d %s %x %v\n", d, cy.mirrors[i+1].fp, cy.mirrors[i+1].opt)
		}
	}
	return buf.Bytes()
}

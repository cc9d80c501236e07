package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/dwave"
	"repro/internal/embedding"
	"repro/internal/exec"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/plancache"
	"repro/internal/topology"
	"repro/mqopt"
	"repro/mqopt/cluster"
	"repro/mqopt/solverreg"
)

// span is one traced call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the replay is sequential, so a stack
// gives every span its parent.
type tracer struct {
	base  time.Time
	req   int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: t.req, Start: time.Since(t.base).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.base).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums each layer's self time (span minus its children) and
// counts its spans.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		count[s.Name]++
	}
	return self, count
}

// write stores every span as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// compiled is the traced replay's own compile artifact.
type compiled struct {
	mapping  *logical.Mapping
	emb      *embedding.Embedding
	phys     *embedding.Physical
	ising    *ising.Problem
	program  *anneal.Compiled
	fallback bool
}

// replay holds the caches and accumulators of one traced replay. The
// reference caches mirror the node's: capacity 256, warmed the same way
// the timed run warmed the server.
type replay struct {
	par int
	tr  *tracer

	refCache  *mqopt.Cache                // the untraced reference solves
	pc        *plancache.Cache[*compiled] // traced lookups
	coreCache *core.CompileCache          // warm core.QuantumMQO

	requests int
	acc      map[string]float64 // sums of per-request counts
	refSolve time.Duration      // Σ untraced registry Solve
	covered  time.Duration      // Σ traced layer time of the same solves
	waitSum  time.Duration
	waitN    int
	fanSeq   time.Duration // Σ solve wall at parallelism 1
	fanPar   time.Duration // Σ solve wall at default parallelism
}

const replayCacheCapacity = 256

func newReplay(par int) *replay {
	return &replay{
		par:       par,
		tr:        newTracer(),
		refCache:  mqopt.NewCache(replayCacheCapacity),
		pc:        plancache.New[*compiled](replayCacheCapacity),
		coreCache: core.NewCompileCache(replayCacheCapacity),
		acc:       map[string]float64{},
	}
}

// buildGraph builds the request's topology the way a solve does: the
// facade resolves a named kind from the registry, and core falls back to
// a fault-free D-Wave 2X.
func buildGraph(kind string) (topology.Graph, error) {
	if kind == "" {
		return topology.DWave2X(0, 0), nil
	}
	return topology.New(kind, 0, 0)
}

// decodeBody runs the node's decode path on a request body.
func decodeBody(body []byte) (mqopt.Request, error) {
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req, _, err := cluster.DecodeSolveRequest(rec, hreq, 0)
	if err != nil {
		return mqopt.Request{}, err
	}
	return cluster.BuildRequest(req)
}

// encodeResult runs the node's encode path.
func encodeResult(res *mqopt.Result) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(cluster.EncodeResponse(res))
}

// refSolveOne is the untraced reference: the node's decode, the
// registry solver's Solve on the service's option order, and encode.
func (r *replay) refSolveOne(ctx context.Context, body []byte) (*mqopt.Result, [3]time.Duration, error) {
	var d [3]time.Duration
	t0 := time.Now()
	sreq, err := decodeBody(body)
	if err != nil {
		return nil, d, err
	}
	t1 := time.Now()
	name := sreq.Solver
	if name == "" {
		name = mqopt.DefaultServiceSolver
	}
	solver, err := solverreg.New(name)
	if err != nil {
		return nil, d, err
	}
	opts := append([]mqopt.Option{mqopt.WithCache(r.refCache)}, sreq.Options...)
	opts = append(opts, mqopt.WithParallelism(r.par))
	res, err := solver.Solve(ctx, sreq.Problem, opts...)
	if err != nil {
		return nil, d, err
	}
	t2 := time.Now()
	if err := encodeResult(res); err != nil {
		return nil, d, err
	}
	t3 := time.Now()
	d[0], d[1], d[2] = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return res, d, nil
}

// warm brings the replay's caches to the state the timed run's
// warm-up left the server in.
func (r *replay) warm(ctx context.Context, calls []call) error {
	for _, c := range calls {
		if _, _, err := r.refSolveOne(ctx, c.it.body); err != nil {
			return err
		}
		if c.it.req.Workload != "" {
			continue
		}
		if err := r.layers(ctx, c.it, false); err != nil {
			return err
		}
	}
	return nil
}

// compileKey derives the compile-cache key from the same canonical
// hashes core's compile step uses: problem, topology, pattern and the
// two weight parameters.
func compileKey(p *mqo.Problem, g topology.Graph, pattern core.Pattern, eps float64) plancache.Key {
	k := plancache.NewKeyer()
	io.WriteString(k, "core.compile.v1\x00")
	p.HashInto(k)
	g.HashInto(k)
	io.WriteString(k, string(pattern))
	k.Write([]byte{0})
	k.Uint64(math.Float64bits(eps))
	k.Uint64(0)
	return k.Key()
}

// layers runs one qa request through the layers' exported functions in
// the order a solve makes them — topology, cache lookup with core's
// compile stages inside it on a miss, sampling, the warm core solve —
// recording a span around each call when traced. Untraced, it only
// brings the caches to the state the request leaves them in.
func (r *replay) layers(ctx context.Context, it *solveItem, traced bool) error {
	req := it.req
	prob, err := mqo.Read(bytes.NewReader(req.Problem))
	if err != nil {
		return err
	}
	pattern := core.Pattern(req.Embedding)
	budget := mqopt.DefaultBudget
	if req.Budget != "" {
		if budget, err = time.ParseDuration(req.Budget); err != nil {
			return err
		}
	}
	runs := core.RunsForBudget(budget, req.Runs)
	var sampler anneal.Sampler
	sa := anneal.DefaultSA()
	if req.Sweeps > 0 {
		sa.Sweeps = req.Sweeps
		sampler = sa
	}
	seed := mqopt.DefaultSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	begin := func(name string) int {
		if !traced {
			return -1
		}
		return r.tr.begin(name)
	}
	end := func(id int) {
		if id >= 0 {
			r.tr.end(id)
		}
	}

	eps := logical.DefaultEpsilon
	t0 := time.Now()
	st := begin("topology.build")
	g, err := buildGraph(req.Topology)
	end(st)
	if err != nil {
		return err
	}
	sl := begin("plancache.lookup")
	comp, hit, err := r.pc.Do(ctx, compileKey(prob, g, pattern, eps), func() (*compiled, error) {
		c := &compiled{}
		var cerr error
		s := begin("logical.map")
		c.mapping = logical.Map(prob)
		end(s)
		s = begin("embedding.embed")
		c.emb, c.fallback, cerr = core.EmbedProblem(g, prob, c.mapping, pattern)
		end(s)
		if cerr != nil {
			return nil, cerr
		}
		s = begin("embedding.physical")
		c.phys, cerr = embedding.PhysicalMap(c.emb, c.mapping.QUBO, eps)
		end(s)
		if cerr != nil {
			return nil, cerr
		}
		s = begin("anneal.compile")
		c.ising = ising.FromQUBO(c.phys.QUBO)
		c.program = anneal.Compile(c.ising)
		end(s)
		return c, nil
	})
	end(sl)
	prep := time.Since(t0)
	if err != nil {
		return err
	}
	copt := core.Options{Graph: g, Runs: runs, Pattern: pattern, Sampler: sampler, Parallelism: r.par, Cache: r.coreCache}
	if !hit {
		// Prime the warm-solve cache with a single run, untimed.
		one := copt
		one.Runs = 1
		if _, err := core.QuantumMQO(ctx, prob, one, seed); err != nil {
			return err
		}
	}
	if !traced {
		return nil
	}

	// Sampling alone: the device's gauge batches with a no-op read-out.
	device := dwave.NewDeviceFor(g.Kind(), copt.Sampler)
	if device.Sampler == nil {
		device.Sampler = dwave.DefaultSampler()
	}
	batches := device.Batches(runs, seed)
	ss := begin("anneal.sample")
	err = sampleBatches(ctx, device, comp, batches, r.par)
	end(ss)
	if err != nil {
		return err
	}
	sample := time.Duration(r.tr.spans[ss].End - r.tr.spans[ss].Start)

	sc := begin("core.solve")
	cres, err := core.QuantumMQO(ctx, prob, copt, seed)
	end(sc)
	if err != nil {
		return err
	}
	solve := time.Duration(r.tr.spans[sc].End - r.tr.spans[sc].Start)
	r.covered += prep + solve

	// Fan-out: the same warm solve at parallelism 1 against the default
	// (one worker per CPU).
	seq, def := solve, solve
	if r.par != 1 {
		one := copt
		one.Parallelism = 1
		t := time.Now()
		if _, err := core.QuantumMQO(ctx, prob, one, seed); err != nil {
			return err
		}
		seq = time.Since(t)
	} else if runtime.GOMAXPROCS(0) > 1 {
		all := copt
		all.Parallelism = 0
		t := time.Now()
		if _, err := core.QuantumMQO(ctx, prob, all, seed); err != nil {
			return err
		}
		def = time.Since(t)
	}
	r.fanSeq += seq
	r.fanPar += def

	sweeps := sa.Sweeps
	n := float64(comp.program.N)
	r.acc["qa"]++
	r.acc["sample_ns"] += float64(sample)
	r.acc["decode_ns"] += float64(solve - sample)
	r.acc["logical.terms"] += float64(comp.mapping.QUBO.NumQuadratic())
	r.acc["embedding.qubits_per_var"] += comp.emb.QubitsPerVariable()
	r.acc["embedding.max_chain"] += float64(comp.emb.MaxChainLength())
	if comp.fallback {
		r.acc["fallback"]++
	}
	r.acc["anneal.spin_updates"] += float64(runs) * float64(sweeps) * n
	r.acc["anneal.sweep_kb"] += float64(len(comp.program.PNbr)*4+len(comp.program.PW)*8+len(comp.program.Deg)*4+
		len(comp.program.H)*8+comp.program.N*8+anneal.WordsFor(comp.program.N)*16) / 1024
	r.acc["dwave.runs"] += float64(cres.Runs)
	r.acc["dwave.broken_chain_pct"] += 100 * cres.BrokenChainRate
	if pts := cres.Trace.Points(); len(pts) > 0 && cres.Runs > 0 {
		total := time.Duration(cres.Runs) * device.TimePerSample()
		r.acc["core.best_run_pct"] += 100 * float64(pts[len(pts)-1].T) / float64(total)
	}
	return nil
}

// sampleBatches streams every gauge batch with a no-op read-out through
// the same fan-out core uses: internal/exec workers, each owning the
// scratch arena of its worker slot.
func sampleBatches(ctx context.Context, d *dwave.Device, c *compiled, batches []dwave.Batch, par int) error {
	scratch := make([]dwave.Scratch, exec.Parallelism(par))
	return exec.ForEachOrdered(ctx, par, len(batches), func(tctx context.Context, i int) (struct{}, error) {
		d.StreamBatch(tctx, c.ising, c.program, batches[i], &scratch[exec.WorkerID(tctx)], func(dwave.Readout) bool { return true })
		return struct{}{}, nil
	}, func(int, struct{}) bool { return true })
}

// solveRequest replays one /solve request: the untraced reference, then
// the traced pass through the layers.
func (r *replay) solveRequest(ctx context.Context, idx int, c call, clientLat time.Duration, haveLat bool) error {
	r.tr.req = idx
	res, ref, err := r.refSolveOne(ctx, c.it.body)
	if err != nil {
		return err
	}
	r.refSolve += ref[1]
	if haveLat {
		r.waitSum += clientLat - ref[0] - ref[1] - ref[2]
		r.waitN++
	}
	r.requests++
	r.acc["cluster.body_kb"] += float64(len(c.it.body)) / 1024

	s := r.tr.begin("cluster.decode")
	sreq, err := decodeBody(c.it.body)
	r.tr.end(s)
	if err != nil {
		return err
	}
	if c.it.req.Workload != "" {
		s = r.tr.begin("joingraph.derive")
		_, err := mqopt.ParseWorkload(strings.NewReader(c.it.req.Workload))
		r.tr.end(s)
		if err != nil {
			return err
		}
	}
	if c.it.req.Solver == "portfolio" {
		solver, err := solverreg.New("portfolio")
		if err != nil {
			return err
		}
		opts := append([]mqopt.Option{mqopt.WithCache(r.refCache)}, sreq.Options...)
		opts = append(opts, mqopt.WithParallelism(r.par))
		s = r.tr.begin("portfolio.solve")
		pres, err := solver.Solve(ctx, sreq.Problem, opts...)
		r.tr.end(s)
		if err != nil {
			return err
		}
		r.covered += time.Duration(r.tr.spans[s].End - r.tr.spans[s].Start)
		if pf := pres.Portfolio; pf != nil {
			r.acc["portfolio"]++
			r.acc["portfolio.members"] += float64(len(pf.Members))
			if strings.EqualFold(pf.Winner, "qa") {
				r.acc["portfolio.qa_wins"]++
			}
		}
	} else if err := r.layers(ctx, c.it, true); err != nil {
		return err
	}
	s = r.tr.begin("cluster.encode")
	err = encodeResult(res)
	r.tr.end(s)
	return err
}

// sessionReplay replays session cycles in-process: each operation is
// decoded, applied to an mqopt.Session, and encoded, first untraced as
// the reference and then traced on a twin session.
func (r *replay) sessionCycle(ctx context.Context, ci int, cy *cycle, lat map[int]time.Duration) error {
	ref := mqopt.NewSession(cy.cfg)
	ref.SetParallelism(r.par)
	live := mqopt.NewSession(cy.cfg)
	live.SetParallelism(r.par)
	ops := cy.opList()
	for k, op := range ops[:len(ops)-1] {
		r.tr.req = ci*opStride + k
		var delta mqopt.SessionDelta
		t0 := time.Now()
		if k == 0 {
			var cr cluster.SessionCreateRequest
			if err := json.Unmarshal(op.body, &cr); err != nil {
				return err
			}
			delta = *cr.Delta
		} else {
			var dr cluster.SessionDeltaRequest
			if err := json.Unmarshal(op.body, &dr); err != nil {
				return err
			}
			delta = *dr.Delta
		}
		t1 := time.Now()
		ep, err := ref.Apply(ctx, delta)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := json.MarshalIndent(cluster.SessionEpochResponse{ID: cy.id, Epoch: ep}, "", "  "); err != nil {
			return err
		}
		t3 := time.Now()
		r.refSolve += t2.Sub(t1)
		if l, ok := lat[r.tr.req]; ok {
			r.waitSum += l - t3.Sub(t0)
			r.waitN++
		}

		s := r.tr.begin("cluster.decode")
		var probe struct {
			Delta *mqopt.SessionDelta `json:"delta"`
		}
		err = json.Unmarshal(op.body, &probe)
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.begin("session.apply")
		tep, err := live.Apply(ctx, *probe.Delta)
		r.tr.end(s)
		if err != nil {
			return err
		}
		r.covered += time.Duration(r.tr.spans[s].End - r.tr.spans[s].Start)
		s = r.tr.begin("cluster.encode")
		_, err = json.MarshalIndent(cluster.SessionEpochResponse{ID: cy.id, Epoch: tep}, "", "  ")
		r.tr.end(s)
		if err != nil {
			return err
		}
		if tep.Fingerprint != cy.mirrors[k].fp {
			return fmt.Errorf("replayed session %s epoch %d: fingerprint differs from the mirror", cy.id, k)
		}
		r.requests++
		r.acc["cluster.body_kb"] += float64(len(op.body)) / 1024
		r.acc["epochs"]++
		r.acc["decompose.windows"] += float64(tep.Windows)
		r.acc["decompose.skipped"] += float64(tep.WindowsSkipped)
		r.acc["decompose.runs"] += float64(tep.Runs)
		r.acc["dwave.runs"] += float64(tep.Runs)
	}
	return nil
}

// opStride separates the operation numbers of consecutive cycles.
const opStride = 64

// routeCompare sends the same session cycles through the router and
// straight to each session's ring owner on a fresh deployment, and
// returns the mean latency of both paths.
func routeCompare(ctx context.Context, bin string, cycles []*cycle) (viaRouter, direct time.Duration, err error) {
	d, err := deploy(ctx, bin, true)
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	var peers []string
	for _, w := range d.workers {
		peers = append(peers, w.url)
	}
	ring := cluster.BuildRing(peers, cluster.DefaultReplicas)
	client := newClient()
	defer client.CloseIdleConnections()
	t := newTally()
	var sums [2]time.Duration
	n := 0
	for _, cy := range cycles {
		fp, err := cluster.SessionFP(cy.id)
		if err != nil {
			return 0, 0, err
		}
		owner, ok := ring.Owner(fp)
		if !ok {
			return 0, 0, fmt.Errorf("empty ring")
		}
		for pass, front := range []string{d.front, owner} {
			for _, op := range cy.opList() {
				status, raw, lat, err := send(ctx, client, op.method, front+op.path, op.body)
				if err == nil {
					err = t.checkSession(cy, op, status, raw, false)
				}
				if err != nil {
					return 0, 0, fmt.Errorf("route comparison: %v", err)
				}
				sums[pass] += lat
				if pass == 0 {
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("route comparison sent nothing")
	}
	return sums[0] / time.Duration(n), sums[1] / time.Duration(n), nil
}

// ownerSkew is the busiest worker's operation count over the mean, for
// the ring a deployment's workers form.
func ownerSkew(d *deployment, cycles []*cycle) float64 {
	var peers []string
	for _, w := range d.workers {
		peers = append(peers, w.url)
	}
	ring := cluster.BuildRing(peers, cluster.DefaultReplicas)
	count := map[string]int{}
	total := 0
	for _, cy := range cycles {
		fp, err := cluster.SessionFP(cy.id)
		if err != nil {
			continue
		}
		if owner, ok := ring.Owner(fp); ok {
			count[owner] += cy.ops()
			total += cy.ops()
		}
	}
	if total == 0 {
		return 0
	}
	max := 0
	for _, c := range count {
		if c > max {
			max = c
		}
	}
	return float64(max) / (float64(total) / float64(len(peers)))
}

// spanCost measures what recording one span costs, on a throwaway
// tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x"))
	}
	return time.Since(start) / n
}

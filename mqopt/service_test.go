package mqopt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// serviceResolver resolves the modeled-clock backends without going
// through the registry (which lives above this package).
func serviceResolver(name string) (Solver, error) {
	switch name {
	case "qa":
		return NewQASolver(), nil
	case "qa-series":
		return NewQASeriesSolver(), nil
	case "climb":
		return NewHillClimbSolver(), nil
	}
	return nil, fmt.Errorf("test resolver: unknown solver %q", name)
}

// serviceProblem returns one paper-class instance, embeddable and big
// enough that compilation dominates a short solve.
func serviceProblem(t testing.TB, seed int64) *Problem {
	t.Helper()
	p, err := GenerateEmbeddable(seed, nil,
		Class{Queries: 15, PlansPerQuery: 3}, DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// canonicalResult serializes a Result for byte-level comparison,
// dropping the one wall-clock measurement field (PreprocessTime): it
// reports how long the compile took to BUILD, which is measurement
// metadata, not an outcome — everything the solve decided (solution,
// cost, the full modeled-time incumbent trace, annealer artifacts) is
// compared byte-for-byte.
func canonicalResult(t testing.TB, res *Result) []byte {
	t.Helper()
	c := *res
	if res.Annealer != nil {
		a := *res.Annealer
		a.PreprocessTime = 0
		c.Annealer = &a
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serviceRequests is the fixed request set of the determinism tests:
// two distinct shapes, both annealer backends, several seeds.
func serviceRequests(t testing.TB) []Request {
	pA := serviceProblem(t, 1)
	pB := serviceProblem(t, 2)
	var reqs []Request
	for seed := int64(1); seed <= 3; seed++ {
		reqs = append(reqs,
			Request{Problem: pA, Solver: "qa", Options: []Option{
				WithSeed(seed), WithAnnealingRuns(40), WithBudget(40 * 376 * time.Microsecond), WithParallelism(1),
			}},
			Request{Problem: pB, Solver: "qa-series", Options: []Option{
				WithSeed(seed), WithAnnealingRuns(20), WithBudget(20 * 376 * time.Microsecond), WithParallelism(1),
			}},
		)
	}
	return reqs
}

// runService executes the fixed request set concurrently and returns
// the canonical serialization of each result, in request order.
func runService(t *testing.T, svc *Service, reqs []Request) [][]byte {
	t.Helper()
	out := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			res, err := svc.Solve(context.Background(), req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			out[i] = canonicalResult(t, res)
		}(i, req)
	}
	wg.Wait()
	return out
}

// TestServiceDeterministicAcrossBatchingAndCache is the service face of
// the determinism contract: a fixed seed and request set produce
// byte-identical results with cache on vs off and with batch window 0
// vs 50 ms.
func TestServiceDeterministicAcrossBatchingAndCache(t *testing.T) {
	reqs := serviceRequests(t)

	variants := []struct {
		name string
		mk   func() (*Service, error)
		off  bool // disable the cache per request
	}{
		{name: "window0+cache", mk: func() (*Service, error) { return NewService(serviceResolver) }},
		{name: "window50ms+cache", mk: func() (*Service, error) {
			return NewService(serviceResolver, WithBatchWindow(50*time.Millisecond))
		}},
		{name: "window0+nocache", mk: func() (*Service, error) { return NewService(serviceResolver) }, off: true},
		{name: "window50ms+nocache", mk: func() (*Service, error) {
			return NewService(serviceResolver, WithBatchWindow(50*time.Millisecond))
		}, off: true},
	}

	var baseline [][]byte
	for _, v := range variants {
		svc, err := v.mk()
		if err != nil {
			t.Fatal(err)
		}
		vreqs := reqs
		if v.off {
			vreqs = make([]Request, len(reqs))
			for i, r := range reqs {
				r.Options = append(append([]Option(nil), r.Options...), WithCache(nil))
				vreqs[i] = r
			}
		}
		got := runService(t, svc, vreqs)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if v.off {
			// The per-request escape hatch must have kept the shared
			// cache untouched.
			if st := svc.Stats().Cache; st.Misses != 0 || st.Hits != 0 {
				t.Errorf("%s: cache was consulted despite WithCache(nil): %+v", v.name, st)
			}
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for i := range got {
			if string(got[i]) != string(baseline[i]) {
				t.Errorf("%s: request %d diverges from %s baseline\n got: %s\nwant: %s",
					v.name, i, variants[0].name, got[i], baseline[i])
			}
		}
	}
}

// gateSolver blocks every Solve on a release channel, IGNORING ctx —
// the shape of work the service cannot abandon once started. entered
// receives one tick per Solve that begins executing.
type gateSolver struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateSolver) Name() string { return "GATE" }

func (g *gateSolver) Solve(ctx context.Context, p *Problem, opts ...Option) (*Result, error) {
	g.entered <- struct{}{}
	<-g.release
	return &Result{Solver: "GATE", Solution: Solution{0, 2}}, nil
}

// probeSolver records the parallelism each Solve resolved from its
// options — the observable of the service's pinning decision.
type probeSolver struct {
	mu    sync.Mutex
	paral []int
	gate  *gateSolver // optional: block inside Solve after recording
}

func (p *probeSolver) Name() string { return "PROBE" }

func (p *probeSolver) Solve(ctx context.Context, prob *Problem, opts ...Option) (*Result, error) {
	cfg := newSolveConfig(opts)
	p.mu.Lock()
	p.paral = append(p.paral, cfg.parallelism)
	p.mu.Unlock()
	if p.gate != nil {
		return p.gate.Solve(ctx, prob, opts...)
	}
	return &Result{Solver: "PROBE", Solution: Solution{0, 2}}, nil
}

// tinyProblem is a minimal valid instance for the fake-solver tests.
func tinyProblem(t testing.TB) *Problem {
	t.Helper()
	return MustProblem([][]int{{0, 1}, {2, 3}}, []float64{2, 4, 3, 1},
		[]Saving{{P1: 1, P2: 2, Value: 1}})
}

// TestServiceInFlightAccounting: a batched caller that abandons on
// ctx.Done() must NOT decrement InFlight while its request is still
// executing — the counter tracks the service's real work, not how many
// callers are still waiting.
func TestServiceInFlightAccounting(t *testing.T) {
	gate := &gateSolver{entered: make(chan struct{}, 4), release: make(chan struct{})}
	resolver := func(name string) (Solver, error) { return gate, nil }
	svc, err := NewService(resolver, WithBatchWindow(20*time.Millisecond), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProblem(t)

	doneA := make(chan error, 1)
	go func() {
		_, err := svc.Solve(context.Background(), Request{Problem: p})
		doneA <- err
	}()
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	doneB := make(chan error, 1)
	go func() {
		_, err := svc.Solve(ctxB, Request{Problem: p})
		doneB <- err
	}()

	// Both requests are executing (blocked inside the gate solver).
	<-gate.entered
	<-gate.entered
	if got := svc.Stats().InFlight; got != 2 {
		t.Fatalf("InFlight = %d with 2 executing solves, want 2", got)
	}

	// B's caller abandons. The solve it started keeps running: InFlight
	// must still report both units of work.
	cancelB()
	if err := <-doneB; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller: err = %v, want context.Canceled", err)
	}
	if got := svc.Stats().InFlight; got != 2 {
		t.Errorf("InFlight = %d after caller abandoned an executing solve, want 2", got)
	}

	close(gate.release)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().InFlight; got != 0 {
		t.Errorf("InFlight = %d after drain, want 0", got)
	}
}

// TestServiceAbandonedBatchSkipped: a batch whose every request was
// cancelled during the admission window executes nothing and bumps no
// counters — no phantom Batches, no Coalesced for dead requests.
func TestServiceAbandonedBatchSkipped(t *testing.T) {
	gate := &gateSolver{entered: make(chan struct{}, 4), release: make(chan struct{})}
	close(gate.release) // never block; it must not be called at all
	resolver := func(name string) (Solver, error) { return gate, nil }
	svc, err := NewService(resolver, WithBatchWindow(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	p := tinyProblem(t)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(ctx, Request{Problem: p}); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		}()
	}
	time.Sleep(15 * time.Millisecond) // let all three enqueue
	cancel()
	wg.Wait()
	time.Sleep(80 * time.Millisecond) // let the window flush the dead batch

	st := svc.Stats()
	if st.Batches != 0 {
		t.Errorf("Batches = %d for a fully-abandoned window, want 0", st.Batches)
	}
	if st.Coalesced != 0 {
		t.Errorf("Coalesced = %d for dead requests, want 0", st.Coalesced)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after the dead batch was discarded, want 0", st.InFlight)
	}
	select {
	case <-gate.entered:
		t.Error("a fully-abandoned batch still executed a solve")
	default:
	}
	if st.Requests != 3 {
		t.Errorf("Requests = %d, want 3 (admission happened)", st.Requests)
	}
}

// TestServicePinningByLoad: a solve may fan out only while it is the
// sole solve executing service-wide. The old per-batch rule (pin iff
// len(batch) > 1) let every single-request batch fan out at full
// parallelism concurrently with other batches, multiplying workers
// toward P².
func TestServicePinningByLoad(t *testing.T) {
	gate := &gateSolver{entered: make(chan struct{}, 4), release: make(chan struct{})}
	probe := &probeSolver{gate: gate}
	resolver := func(name string) (Solver, error) { return probe, nil }
	// Window 0: each request is its own single-request batch — exactly
	// the escape the per-batch rule had.
	svc, err := NewService(resolver, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProblem(t)

	done := make(chan error, 2)
	go func() {
		_, err := svc.Solve(context.Background(), Request{Problem: p})
		done <- err
	}()
	<-gate.entered // first solve is executing, alone: unpinned
	go func() {
		_, err := svc.Solve(context.Background(), Request{Problem: p})
		done <- err
	}()
	<-gate.entered // second solve joined while the first still runs: pinned
	close(gate.release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	probe.mu.Lock()
	defer probe.mu.Unlock()
	if len(probe.paral) != 2 {
		t.Fatalf("recorded %d solves, want 2", len(probe.paral))
	}
	if probe.paral[0] != 4 {
		t.Errorf("solo solve resolved parallelism %d, want 4 (unpinned: the service default)", probe.paral[0])
	}
	if probe.paral[1] != 1 {
		t.Errorf("concurrent solve resolved parallelism %d, want 1 (pinned)", probe.paral[1])
	}
}

// TestServiceCoalescing: same-shape requests inside one admission
// window are counted coalesced and compile exactly once.
func TestServiceCoalescing(t *testing.T) {
	svc, err := NewService(serviceResolver, WithBatchWindow(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	p := serviceProblem(t, 1)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := svc.Solve(context.Background(), Request{Problem: p, Options: []Option{
				WithSeed(seed), WithAnnealingRuns(5), WithBudget(time.Millisecond),
			}})
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	st := svc.Stats()
	if st.Requests != n {
		t.Errorf("Requests = %d, want %d", st.Requests, n)
	}
	if st.Batches == 0 || st.Batches > 2 {
		// All 8 fire inside one 100 ms window on any sane machine; allow
		// one window rollover of slack.
		t.Errorf("Batches = %d, want 1 (or 2 with scheduler slack)", st.Batches)
	}
	if st.Coalesced < n-2 {
		t.Errorf("Coalesced = %d, want ≥ %d", st.Coalesced, n-2)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("cache Misses = %d, want exactly 1 compile for one shape", st.Cache.Misses)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after all replies, want 0", st.InFlight)
	}
}

// throughputProblem is the repeated-shape benchmark configuration: a
// 90-plan instance TRIAD-embedded on a 24×24 Chimera (the successor-
// device scale), where the minor embedding dominates a short solve —
// the regime the compilation cache exists for. One annealing run at a
// fast surrogate profile keeps the sampled side honest but small.
func throughputProblem(t testing.TB) (*Service, *Problem, func(seed int64, opts ...Option) Request) {
	t.Helper()
	topo := NewTopology(24, 24)
	svc, err := NewService(serviceResolver, WithTopologyGraph(topo))
	if err != nil {
		t.Fatal(err)
	}
	p, err := GenerateEmbeddable(1, topo, Class{Queries: 45, PlansPerQuery: 2}, DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := func(seed int64, opts ...Option) Request {
		return Request{Problem: p, Solver: "qa", Options: append([]Option{
			WithSeed(seed), WithAnnealingRuns(1), WithBudget(time.Millisecond),
			WithParallelism(1), WithEmbedding(EmbeddingTriad), WithAnnealingSweeps(4),
		}, opts...)}
	}
	return svc, p, req
}

// TestServiceWarmThroughput pins the acceptance bar: on the
// repeated-shape benchmark, warm-cache throughput is at least 5× the
// cold path (cache disabled per request). The ratio stands for a
// deterministic contract checked in every build: after priming, each
// warm solve is a cache hit and never compiles, and a solve without a
// cache never touches the service's cache.
//
// The host's speed drifts from one moment to the next: on a 2-core
// host the same round of solves runs up to 50% slower while other
// processes load the machine. So the test alternates short warm and
// cold rounds, takes the ratio within each adjacent pair of rounds,
// which both ran on the host in the same state, and gates the median
// of those ratios. Each round starts on a collected heap and runs two
// untimed solves first, so neither side is timed while the runtime and
// the CPU caches still hold the other side's state. A warm solve costs
// a fraction of a cold one, so a warm round times more solves.
func TestServiceWarmThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement in -short mode")
	}
	svc, _, req := throughputProblem(t)
	defer svc.Close()
	const rounds, warmN, coldN, untimed = 15, 30, 10, 2
	ctx := context.Background()

	// measure returns the mean time of the n timed solves of one round
	// and the cache counters around the whole round.
	measure := func(n int, opts ...Option) (time.Duration, CacheStats, CacheStats) {
		runtime.GC()
		before := svc.Stats().Cache
		solve := func(i int) {
			if _, err := svc.Solve(ctx, req(int64(i+1), opts...)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < untimed; i++ {
			solve(i)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			solve(i)
		}
		return time.Since(start) / time.Duration(n), before, svc.Stats().Cache
	}

	// Prime the cache so the warm path never compiles.
	if _, err := svc.Solve(ctx, req(0)); err != nil {
		t.Fatal(err)
	}
	warm := make([]time.Duration, rounds)
	cold := make([]time.Duration, rounds)
	for r := range warm {
		var before, after CacheStats
		warm[r], before, after = measure(warmN)
		if hits := after.Hits - before.Hits; hits != untimed+warmN || after.Misses != before.Misses {
			t.Errorf("warm round %d: cache hits +%d, misses +%d; want +%d, +0",
				r, hits, after.Misses-before.Misses, untimed+warmN)
		}
		cold[r], before, after = measure(coldN, WithCache(nil))
		if after != before {
			t.Errorf("cold round %d: WithCache(nil) solves changed the cache counters: %+v -> %+v", r, before, after)
		}
	}

	ratios := make([]float64, rounds)
	for r := range ratios {
		ratios[r] = float64(cold[r]) / float64(warm[r])
	}
	slices.Sort(ratios)
	speedup := ratios[rounds/2]
	t.Logf("repeated-shape solve time: median cold/warm ratio of %d round pairs %.2fx; per round cold %v, warm %v",
		rounds, speedup, cold, warm)
	if raceEnabled {
		// The race detector's instrumentation slows the warm path
		// relatively more than the compile the cache skips (3.1–3.5×
		// on a 2-core host), so under -race the ratio measures the
		// detector; the counter checks above still hold.
		return
	}
	if speedup < 5 {
		t.Errorf("warm-cache throughput %.2fx cold, want ≥ 5x", speedup)
	}
}

func TestServiceClose(t *testing.T) {
	svc, err := NewService(serviceResolver, WithBatchWindow(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	p := serviceProblem(t, 1)
	// A request parked in the admission window must still complete when
	// Close flushes it.
	done := make(chan error, 1)
	go func() {
		_, err := svc.Solve(context.Background(), Request{Problem: p, Options: []Option{
			WithSeed(1), WithAnnealingRuns(3), WithBudget(time.Millisecond),
		}})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it enqueue
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("queued request failed across Close: %v", err)
	}
	if _, err := svc.Solve(context.Background(), Request{Problem: p}); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("Solve after Close: err = %v, want ErrServiceClosed", err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServiceErrors(t *testing.T) {
	if _, err := NewService(nil); err == nil {
		t.Error("NewService(nil resolver) succeeded")
	}
	svc, err := NewService(serviceResolver)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Solve(context.Background(), Request{}); err == nil {
		t.Error("nil problem accepted")
	}
	p := serviceProblem(t, 1)
	if _, err := svc.Solve(context.Background(), Request{Problem: p, Solver: "no-such"}); err == nil {
		t.Error("unknown solver accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Solve(ctx, Request{Problem: p}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestServiceCancelledWhileQueued: a request whose context dies inside
// the admission window returns promptly with ctx.Err().
func TestServiceCancelledWhileQueued(t *testing.T) {
	svc, err := NewService(serviceResolver, WithBatchWindow(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	p := serviceProblem(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.Solve(ctx, Request{Problem: p, Options: []Option{WithAnnealingRuns(3)}})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("cancelled request still blocked in the admission window")
	}
}

// BenchmarkServiceColdPath / BenchmarkServiceWarmPath are the
// repeated-shape service benchmarks behind the BENCH trajectory: one
// shape, one-run solves, with and without the compilation cache.
func benchmarkService(b *testing.B, opts ...Option) {
	svc, _, req := throughputProblem(b)
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Solve(ctx, req(0)); err != nil { // prime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Solve(ctx, req(int64(i+1), opts...)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceColdPath(b *testing.B) { benchmarkService(b, WithCache(nil)) }
func BenchmarkServiceWarmPath(b *testing.B) { benchmarkService(b) }

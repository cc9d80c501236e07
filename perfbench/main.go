// Command perfbench is the repository's closed-loop benchmark of
// mqo-serve. For one workload and seed it generates the whole request
// stream and its reference optima, starts fresh mqo-serve processes with
// only their addressing flags, warms them up, drives a fixed number of
// requests from closed-loop connections, checks every reply, and prints
// the end-to-end metrics. With -trace 1 it additionally replays the same
// requests in-process through each layer's exported functions and prints
// the per-layer metrics. See README.md in this directory.
//
// Run it through run.sh, which builds mqo-serve and this program from the
// tree first:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up (start, readiness,
// warm-up); setup_s is the median, and the last set-up is measured.
const setupRepeats = 5

// safetyCap bounds any closed-loop phase, so a badly regressed tree
// still ends within the run's time limit (with fewer requests).
const safetyCap = 100 * time.Second

func main() { os.Exit(run()) }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serve    string
	out      string
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "nominal measuring time; sets the number of timed requests")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	flag.StringVar(&cfg.serve, "serve", "", "path to the mqo-serve binary under test")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the spans file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	sp, ok := specs[cfg.workload]
	if !ok || cfg.serve == "" || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -serve, -seconds > 0 and -workload in %v\n", workloadNames)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAll()

	n := int(math.Round(sp.rate * cfg.seconds))
	if n < 1 {
		n = 1
	}
	in, err := generate(cfg.workload, cfg.seed, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: generating inputs: %v\n", err)
		return 1
	}
	res, err := serveRun(ctx, cfg, sp, in, setupsFor(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	metrics := endToEnd(cfg, sp, res)
	if cfg.trace {
		layer, err := tracedRun(ctx, cfg, sp, in, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		metrics = layer
	}
	correct := res.t.failed == 0
	for _, e := range res.t.errors {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.t.attempted, res.t.failed, metrics}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(raw))
	if !correct {
		return 1
	}
	return 0
}

// setupsFor: the traced run needs only one set-up.
func setupsFor(trace bool) int {
	if trace {
		return 1
	}
	return setupRepeats
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what the served phase measured.
type runResult struct {
	t           *tally
	setups      []float64 // seconds
	start       time.Time
	elapsed     time.Duration
	cpu         time.Duration
	samples     []sample // host CPU counters through the timed phase
	rssMB       float64
	clientCPU   float64 // client CPU over timed wall, % of one core
	before      map[string]any
	after       map[string]any
	ownerSkew   float64
	completed   int
	statsPrefix string
}

// serveRun sets up (several times when asked; the last deployment is
// measured), then drives the timed phase and reads the processes'
// counters before and after it.
func serveRun(ctx context.Context, cfg config, sp spec, in *inputs, setups int) (*runResult, error) {
	res := &runResult{t: newTally()}
	if sp.routed {
		res.statsPrefix = "totals."
	}
	var dep *deployment
	for rep := 0; rep < setups; rep++ {
		start := time.Now()
		d, err := deploy(ctx, cfg.serve, sp.routed)
		if err != nil {
			return nil, fmt.Errorf("starting mqo-serve: %w", err)
		}
		if err := warmUp(ctx, cfg.workload, d, sp, in, res.t); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if rep < setups-1 {
			d.stop()
			continue
		}
		dep = d
	}
	defer dep.stop()
	if sp.routed {
		res.ownerSkew = ownerSkew(dep, in.cycles[in.warmCycles:])
	}

	var err error
	if res.before, err = fetchStats(ctx, dep.front); err != nil {
		return nil, err
	}
	cpu0, err := dep.cpuTime()
	if err != nil {
		return nil, err
	}
	first, err := takeSample()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	res.start = start
	first.at = start
	stopMon := make(chan struct{})
	monDone := make(chan []sample)
	go monitor(first, stopMon, monDone)
	if sp.routed {
		err = runSessions(ctx, dep.front, sp.conns, in.cycles[in.warmCycles:], res.t, true)
	} else {
		err = runSolves(ctx, dep.front, sp.conns, in.timed, res.t, true, cfg.workload == serveWarm, nil)
	}
	if err != nil {
		close(stopMon)
		<-monDone
		return nil, err
	}
	res.elapsed = time.Since(start)
	res.clientCPU = 100 * float64(selfCPU()-self0) / float64(res.elapsed)
	last, err := takeSample()
	close(stopMon)
	samples := <-monDone
	if err != nil {
		return nil, err
	}
	res.samples = append(samples, last)
	cpu1, err := dep.cpuTime()
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.rssMB, err = dep.peakRSS(); err != nil {
		return nil, err
	}
	if res.after, err = fetchStats(ctx, dep.front); err != nil {
		return nil, err
	}
	for _, o := range res.t.outcomes {
		if o.ok {
			res.completed++
		}
	}
	if res.completed == 0 {
		return nil, fmt.Errorf("no request completed; first errors: %v", res.t.errors)
	}
	return res, nil
}

// warmUp brings a fresh deployment to the workload's steady state,
// ending by state rather than by count.
func warmUp(ctx context.Context, workload string, d *deployment, sp spec, in *inputs, t *tally) error {
	switch workload {
	case serveWarm, paperAnneal:
		// Every template (pool instance) answered once, so every timed
		// request hits the compile cache.
		return runSolves(ctx, d.front, sp.conns, in.warm, t, false, workload == serveWarm, nil)
	case serveChurn:
		// Until the cache evicts: the timed phase is then steady-state
		// miss + insert + evict at whatever the capacity default is. A
		// build without the counter warms up with the whole pool.
		stop := func(done int) bool {
			if done%16 != 0 {
				return false
			}
			doc, err := fetchStats(ctx, d.front)
			if err != nil {
				return false
			}
			ev, ok := counter(doc, "cache.evictions")
			return ok && ev > 0
		}
		return runSolves(ctx, d.front, sp.conns, in.warm, t, false, false, stop)
	case routedSession:
		return runSessions(ctx, d.front, sp.conns, in.cycles[:in.warmCycles], t, false)
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailLadder lists the percentiles tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 67, 50}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is the host's busy and steal time, summed over all CPUs, at
// one instant of the timed phase.
type sample struct {
	at          time.Time
	busy, steal float64 // jiffies from /proc/stat
}

// takeSample reads the host counters now.
func takeSample() (sample, error) {
	busy, steal, err := hostCPU()
	return sample{at: time.Now(), busy: busy, steal: steal}, err
}

// hostCPU reads the aggregate CPU line of /proc/stat: busy (user, nice,
// system, irq, softirq) and steal, the time the hypervisor ran another
// guest while this one wanted a CPU.
func hostCPU() (busy, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0, err
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// monitor samples every 100 ms until stop closes, then sends the
// samples on done.
func monitor(first sample, stop <-chan struct{}, done chan<- []sample) {
	samples := []sample{first}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- samples
			return
		case <-tick.C:
			if s, err := takeSample(); err == nil {
				samples = append(samples, s)
			}
		}
	}
}

// sampleAt interpolates the samples at t.
func sampleAt(samples []sample, t time.Time) sample {
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if t.After(b.at) {
			continue
		}
		f := 1.0
		if span := b.at.Sub(a.at); span > 0 {
			f = float64(t.Sub(a.at)) / float64(span)
		}
		lerp := func(x, y float64) float64 { return x + f*(y-x) }
		return sample{at: t, busy: lerp(a.busy, b.busy), steal: lerp(a.steal, b.steal)}
	}
	return samples[len(samples)-1]
}

// stealShare is the share of the CPU time wanted between a and b that
// the hypervisor gave to other guests.
func stealShare(a, b sample) float64 {
	wanted := (b.busy - a.busy) + (b.steal - a.steal)
	if wanted <= 0 {
		return 0
	}
	return (b.steal - a.steal) / wanted
}

// maxWindows bounds how many windows the timed phase is cut into. A
// window is a run of consecutive completions. Throughput, p50 and tail
// are computed per window, and each is reported as the median over the
// half of the windows in which the hypervisor stole the least CPU from
// this guest: on a shared host, steal comes and goes with other tenants'
// load and slows every layer alike, so the least-stolen windows measure
// the program rather than its neighbours. CPU time needs no such
// selection — stolen time is not charged to a process — so CPU per
// request is taken over the whole phase.
const maxWindows = 10

// windowsFor keeps at least ten operations per window.
func windowsFor(n int) int { return max(1, min(maxWindows, n/10)) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentile is the highest ladder percentile with at least ten of
// n samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

// windowStats is what one window measured.
type windowStats struct {
	thr, p50, tail, steal float64
	lats                  []time.Duration // sorted
}

// summary is the windowed end-to-end figures of a timed phase.
type summary struct {
	thr, p50, tail      float64
	tailP               float64 // the tail percentile
	tailN               int     // samples the tail percentile was taken over
	windows, used       int     // windows cut, and the least-stolen ones used
	stealAll, stealUsed float64 // steal share over the phase, and the worst used window's
}

// windowed cuts the timed phase into windows and summarizes them. The
// tail is taken per window when a window holds at least 30 samples, and
// over the pooled samples of the windows used otherwise.
func windowed(res *runResult) summary {
	var done []outcome
	for _, o := range res.t.outcomes {
		if o.ok {
			done = append(done, o)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].at.Before(done[j].at) })
	sm := summary{windows: windowsFor(len(done))}
	per := len(done) / sm.windows
	perWindowTail := per >= 30
	tailP := tailPercentile(per)

	var ws []windowStats
	from := sampleAt(res.samples, res.start)
	for k := 0; k < sm.windows; k++ {
		w := done[k*per : (k+1)*per]
		if k == sm.windows-1 {
			w = done[k*per:]
		}
		to := sampleAt(res.samples, w[len(w)-1].at)
		lats := make([]time.Duration, len(w))
		for i, o := range w {
			lats[i] = o.lat
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ws = append(ws, windowStats{
			thr:   float64(len(w)) / to.at.Sub(from.at).Seconds(),
			p50:   ms(percentile(lats, 50)),
			tail:  ms(percentile(lats, tailP)),
			steal: stealShare(from, to),
			lats:  lats,
		})
		from = to
	}
	sm.stealAll = stealShare(sampleAt(res.samples, res.start), from)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	sm.used = (len(ws) + 1) / 2
	ws = ws[:sm.used]
	sm.stealUsed = ws[len(ws)-1].steal
	pick := func(f func(windowStats) float64) float64 {
		v := make([]float64, len(ws))
		for i, w := range ws {
			v[i] = f(w)
		}
		return median(v)
	}
	sm.thr = pick(func(w windowStats) float64 { return w.thr })
	sm.p50 = pick(func(w windowStats) float64 { return w.p50 })
	if perWindowTail {
		sm.tail, sm.tailP, sm.tailN = pick(func(w windowStats) float64 { return w.tail }), tailP, per
		return sm
	}
	var pooled []time.Duration
	for _, w := range ws {
		pooled = append(pooled, w.lats...)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	sm.tailN = len(pooled)
	sm.tailP = tailPercentile(sm.tailN)
	sm.tail = ms(percentile(pooled, sm.tailP))
	return sm
}

// endToEnd prints every end-to-end metric by name and unit, and returns
// the ones BENCHMARK.json gates.
func endToEnd(cfg config, sp spec, res *runResult) map[string]metric {
	sm := windowed(res)
	t := res.t
	errPct := 100 * float64(t.failed) / float64(max(t.attempted, 1))
	gap, ratio, ttb := math.NaN(), math.NaN(), math.NaN()
	if t.gapN > 0 {
		gap = 100 * t.gapSum / float64(t.gapN)
		ratio = 100 * t.costSum / t.optSum
	}
	if t.ttbN > 0 {
		ttb = ms(t.ttbSum / time.Duration(t.ttbN))
	}
	m := map[string]metric{
		"req_per_s":      {sm.thr, "1/s"},
		"p50_ms":         {sm.p50, "ms"},
		"tail_ms":        {sm.tail, "ms"},
		"cpu_ms_per_req": {ms(res.cpu) / float64(res.completed), "ms"},
		"rss_mb":         {res.rssMB, "MiB"},
		"setup_s":        {median(res.setups), "s"},
		"cost_ratio_pct": {ratio, "%"},
	}
	fmt.Printf("workload %s, seed %d: %d timed operations on %d closed-loop connection(s) in %.2f s\n",
		cfg.workload, cfg.seed, len(res.t.outcomes), sp.conns, res.elapsed.Seconds())
	fmt.Printf("  %d windows of ~%d operations; figures are medians over the %d least-stolen (steal ≤ %.1f%% of CPU wanted, %.1f%% over the phase)\n",
		sm.windows, res.completed/sm.windows, sm.used, 100*sm.stealUsed, 100*sm.stealAll)
	line := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-16s %12.4f %-4s %s\n", name, v, unit, note)
	}
	line("req_per_s", sm.thr, "1/s", fmt.Sprintf("(%d completed; %.4f over the whole phase)",
		res.completed, float64(res.completed)/res.elapsed.Seconds()))
	line("p50_ms", sm.p50, "ms", "")
	line("tail_ms", sm.tail, "ms", fmt.Sprintf("(p%g of %d samples, %d beyond)",
		sm.tailP, sm.tailN, sm.tailN-int(math.Ceil(sm.tailP/100*float64(sm.tailN)))))
	line("error_pct", errPct, "%", fmt.Sprintf("(%d failed or shed of %d attempted, %d shed)", t.failed, t.attempted, t.shed))
	line("cpu_ms_per_req", m["cpu_ms_per_req"].Value, "ms", "(user+system of all serving processes over the whole phase)")
	line("rss_mb", res.rssMB, "MiB", "(sum of VmHWM)")
	line("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("(median of %d set-ups)", len(res.setups)))
	line("cost_gap_pct", gap, "%", fmt.Sprintf("(mean over %d replies with a known optimum)", t.gapN))
	line("cost_ratio_pct", ratio, "%", "(total cost over total optimum)")
	line("ttb_modeled_ms", ttb, "ms", fmt.Sprintf("(mean over %d replies)", t.ttbN))
	line("client_cpu_pct", res.clientCPU, "%", "(load generator, of one core)")
	return m
}

// tracedRun replays the timed requests in-process with spans and
// returns the per-layer metrics.
func tracedRun(ctx context.Context, cfg config, sp spec, in *inputs, res *runResult) (map[string]metric, error) {
	lat := map[int]time.Duration{}
	for _, o := range res.t.outcomes {
		if o.ok {
			lat[o.index] = o.lat
		}
	}
	par := sp.par
	rp := newReplay(par)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	var routeVia, routeDirect time.Duration
	if sp.routed {
		timed := in.cycles[in.warmCycles:]
		n := min(len(timed), 4)
		var err error
		if routeVia, routeDirect, err = routeCompare(ctx, cfg.serve, timed[:n]); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for ci, cy := range timed {
			if ci > 0 && time.Since(start) > budget {
				break
			}
			if err := rp.sessionCycle(ctx, ci, cy, lat); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&ms1)
	} else {
		if cfg.workload != serveChurn {
			if err := rp.warm(ctx, in.warm); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i, c := range in.timed {
			if i > 0 && time.Since(start) > budget {
				break
			}
			l, ok := lat[i]
			if err := rp.solveRequest(ctx, i, c, l, ok); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
		}
		runtime.ReadMemStats(&ms1)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rp.tr.write(path, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}

	self, count := rp.tr.selfTimes()
	reqs := float64(max(rp.requests, 1))
	perReq := func(name string) float64 { return ms(self[name]) / reqs }
	perSpan := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return ms(self[name]) / float64(count[name])
	}
	acc := rp.acc
	ratio := func(num, den string, scale float64) float64 {
		if acc[den] == 0 {
			return 0
		}
		return scale * acc[num] / acc[den]
	}
	qa := math.Max(acc["qa"], 1)
	m := map[string]metric{
		"cluster.decode_ms":        {perReq("cluster.decode"), "ms"},
		"cluster.encode_ms":        {perReq("cluster.encode"), "ms"},
		"cluster.body_kb":          {acc["cluster.body_kb"] / reqs, "KiB"},
		"joingraph.derive_ms":      {perSpan("joingraph.derive"), "ms"},
		"portfolio.members":        {ratio("portfolio.members", "portfolio", 1), "count"},
		"portfolio.qa_win_pct":     {ratio("portfolio.qa_wins", "portfolio", 100), "%"},
		"plancache.lookup_ms":      {perReq("plancache.lookup"), "ms"},
		"topology.build_ms":        {perReq("topology.build"), "ms"},
		"logical.map_ms":           {perReq("logical.map"), "ms"},
		"logical.terms":            {acc["logical.terms"] / qa, "count"},
		"embedding.embed_ms":       {perReq("embedding.embed"), "ms"},
		"embedding.physical_ms":    {perReq("embedding.physical"), "ms"},
		"embedding.qubits_per_var": {acc["embedding.qubits_per_var"] / qa, "count"},
		"embedding.max_chain":      {acc["embedding.max_chain"] / qa, "count"},
		"embedding.fallback_pct":   {100 * acc["fallback"] / qa, "%"},
		"anneal.compile_ms":        {perReq("anneal.compile"), "ms"},
		"anneal.sample_ms":         {perReq("anneal.sample"), "ms"},
		"anneal.spin_updates":      {acc["anneal.spin_updates"] / qa, "count"},
		"anneal.sweep_kb":          {acc["anneal.sweep_kb"] / qa, "KiB"},
		"dwave.runs":               {acc["dwave.runs"] / reqs, "count"},
		"dwave.broken_chain_pct":   {acc["dwave.broken_chain_pct"] / qa, "%"},
		"core.decode_ms":           {ms(time.Duration(acc["decode_ns"])) / reqs, "ms"},
		"core.best_run_pct":        {acc["core.best_run_pct"] / qa, "%"},
		"session.apply_ms":         {perSpan("session.apply"), "ms"},
		"decompose.windows":        {ratio("decompose.windows", "epochs", 1), "count"},
		"decompose.skipped_pct":    {skippedPct(acc), "%"},
		"decompose.runs":           {ratio("decompose.runs", "epochs", 1), "count"},
		"runtime.alloc_kb_per_req": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / reqs, "KiB"},
		"runtime.gc_per_1k_req":    {1000 * float64(ms1.NumGC-ms0.NumGC) / reqs, "count"},
		"client.cpu_pct":           {res.clientCPU, "%"},
		"cluster.owner_skew":       {res.ownerSkew, "ratio"},
		"cluster.route_ms":         {ms(routeVia - routeDirect), "ms"},
	}
	if acc["sample_ns"] > 0 {
		m["anneal.updates_per_us"] = metric{acc["anneal.spin_updates"] / (acc["sample_ns"] / 1e3), "1/us"}
	} else {
		m["anneal.updates_per_us"] = metric{0, "1/us"}
	}
	m["mqo-serve.wait_ms"] = metric{0, "ms"}
	if rp.waitN > 0 {
		m["mqo-serve.wait_ms"] = metric{ms(rp.waitSum) / float64(rp.waitN), "ms"}
	}
	m["exec.fanout_speedup"] = metric{1, "ratio"}
	if rp.fanPar > 0 {
		m["exec.fanout_speedup"] = metric{float64(rp.fanSeq) / float64(rp.fanPar), "ratio"}
	}
	m["trace.coverage_pct"] = metric{0, "%"}
	if rp.refSolve > 0 {
		m["trace.coverage_pct"] = metric{100 * float64(rp.covered) / float64(rp.refSolve), "%"}
		perRequest := float64(len(rp.tr.spans)) / reqs
		m["trace.overhead_pct"] = metric{100 * perRequest * float64(spanCost()) / (float64(rp.refSolve) / reqs), "%"}
	} else {
		m["trace.overhead_pct"] = metric{0, "%"}
	}

	// Counters the program keeps itself, read around the timed phase.
	delta := func(path string) (float64, bool) {
		a, ok1 := counter(res.before, res.statsPrefix+path)
		b, ok2 := counter(res.after, res.statsPrefix+path)
		return b - a, ok1 && ok2
	}
	if shed, ok := delta("admission.shed"); ok {
		m["cluster.shed"] = metric{shed, "count"}
	}
	hits, ok1 := delta("cache.hits")
	misses, ok2 := delta("cache.misses")
	shared, ok3 := delta("cache.shared")
	if ok1 && ok2 && ok3 {
		v := 0.0
		if lookups := hits + misses + shared; lookups > 0 {
			v = 100 * hits / lookups
		}
		m["plancache.hit_pct"] = metric{v, "%"}
	}
	if ev, ok := delta("cache.evictions"); ok {
		m["plancache.evictions_per_req"] = metric{ev / float64(res.completed), "count"}
	}
	if e, ok := counter(res.after, res.statsPrefix+"cache.entries"); ok {
		m["plancache.entries"] = metric{e, "count"}
	}
	coal, ok1 := delta("coalesced")
	reqsN, ok2 := delta("requests")
	if ok1 && ok2 {
		v := 0.0
		if reqsN > 0 {
			v = 100 * coal / reqsN
		}
		m["mqopt.coalesced_pct"] = metric{v, "%"}
	}

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("traced replay of %s, seed %d: %d requests, spans in %s\n", cfg.workload, cfg.seed, rp.requests, path)
	for _, k := range names {
		fmt.Printf("  %-26s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

func skippedPct(acc map[string]float64) float64 {
	total := acc["decompose.windows"] + acc["decompose.skipped"]
	if total == 0 {
		return 0
	}
	return 100 * acc["decompose.skipped"] / total
}

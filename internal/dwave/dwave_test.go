package dwave

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/ising"
	"repro/internal/qubo"
)

func trivialProblem(n int) *ising.Problem {
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, -1)
	}
	return ising.FromQUBO(q)
}

func randomProblem(seed int64, n int) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			q.AddQuadratic(i, j, rng.NormFloat64())
		}
	}
	return ising.FromQUBO(q)
}

// reading is one read-out copied out of the scratch it was streamed
// through, with its energy in the original program.
type reading struct {
	Spins   []int8
	Energy  float64
	Elapsed time.Duration
}

// streamBatch streams one batch of c, shared across batches the way
// core shares it, and returns its read-outs in run order.
func streamBatch(d *Device, c *anneal.Compiled, b Batch, sc *Scratch) []reading {
	var out []reading
	d.StreamBatch(context.Background(), nil, c, b, sc, func(ro Readout) bool {
		spins := make([]int8, c.N)
		anneal.UnpackSpins(ro.Words, spins)
		out = append(out, reading{Spins: spins, Energy: c.PackedEnergy(ro.Words), Elapsed: ro.Elapsed})
		return true
	})
	return out
}

// session streams every batch of a runs-run session in order through
// one reused scratch and returns all read-outs.
func session(d *Device, p *ising.Problem, runs int, seed int64) []reading {
	c := anneal.Compile(p)
	var sc Scratch
	var out []reading
	for _, b := range d.Batches(runs, seed) {
		out = append(out, streamBatch(d, c, b, &sc)...)
	}
	return out
}

// TestTimingModel: every read-out completes at (run index + 1) · 376 µs
// of modeled device time, continuing across gauge batches.
func TestTimingModel(t *testing.T) {
	d := NewDWave2X(DefaultSampler())
	if d.TimePerSample() != 376*time.Microsecond {
		t.Errorf("TimePerSample = %v, want 376µs (129 anneal + 247 readout)", d.TimePerSample())
	}
	d.RunsPerGauge = 2
	got := session(d, trivialProblem(4), 5, 1)
	if len(got) != 5 {
		t.Fatalf("observed %d read-outs, want 5", len(got))
	}
	for i, r := range got {
		if want := time.Duration(i+1) * 376 * time.Microsecond; r.Elapsed != want {
			t.Errorf("read-out %d elapsed %v, want %v", i, r.Elapsed, want)
		}
	}
}

func TestFindsTrivialGroundState(t *testing.T) {
	d := NewDWave2X(DefaultSampler())
	p := trivialProblem(10)
	best := math.Inf(1)
	for _, r := range session(d, p, 20, 2) {
		best = math.Min(best, r.Energy)
	}
	// Ground: all spins +1, energy = offset-adjusted -10.
	all1 := make([]int8, 10)
	for i := range all1 {
		all1[i] = 1
	}
	if want := p.Energy(all1); math.Abs(best-want) > 1e-9 {
		t.Errorf("best energy %v, want %v", best, want)
	}
}

func TestGaugeBatching(t *testing.T) {
	// With RunsPerGauge = 2 and 5 runs, three gauges are drawn. Each
	// batch's stream opens with its gauge's n Intn(2) draws (bit set ⇔
	// spin reversed), and every run then starts from its uniform draw
	// XOR that gauge on the original program, so the read-outs are
	// already in the original frame. Replay that by hand per batch.
	// DisableGauges draws the same n bits and then discards them. A
	// short hot schedule keeps every read-out dependent on where in the
	// stream its run started.
	p := randomProblem(3, 40)
	c := anneal.Compile(p)
	sa := &anneal.SimulatedAnnealer{Sweeps: 3, BetaStart: 0.1, BetaEnd: 0.5}
	for _, disable := range []bool{false, true} {
		d := NewDWave2X(sa)
		d.RunsPerGauge = 2
		d.DisableGauges = disable
		var want []reading
		gauged := 0
		for _, b := range d.Batches(5, 3) {
			rng := anneal.NewRand(b.Seed)
			gauge := make([]uint64, anneal.WordsFor(c.N))
			for i := 0; i < c.N; i++ {
				bit := rng.Bit()
				gauge[i>>6] |= uint64(bit) << (i & 63)
				gauged += bit
			}
			if disable {
				gauge = nil
			}
			var sc anneal.Scratch
			for j := 0; j < b.Runs; j++ {
				sa.SampleInto(c, rng, &sc, gauge)
				spins := make([]int8, c.N)
				anneal.UnpackSpins(sc.Words(), spins)
				want = append(want, reading{spins, c.PackedEnergy(sc.Words()), time.Duration(b.Start+j+1) * d.TimePerSample()})
			}
		}
		if gauged == 0 {
			t.Fatal("every drawn gauge was the identity; pick another seed")
		}
		if got := session(d, p, 5, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("DisableGauges=%v: streamed read-outs differ from the by-hand gauge replay", disable)
		}
	}
}

func TestBatchesSchedule(t *testing.T) {
	d := NewDWave2X(DefaultSampler())
	d.RunsPerGauge = 100
	batches := d.Batches(250, 7)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	wantRuns := []int{100, 100, 50}
	start := 0
	seeds := map[int64]bool{}
	for i, b := range batches {
		if b.Index != i || b.Start != start || b.Runs != wantRuns[i] {
			t.Errorf("batch %d = %+v, want Start %d Runs %d", i, b, start, wantRuns[i])
		}
		if seeds[b.Seed] {
			t.Errorf("batch %d reuses seed %d", i, b.Seed)
		}
		seeds[b.Seed] = true
		start += b.Runs
	}
	if d.Batches(0, 7)[0].Runs != PaperRunsPerGauge {
		t.Error("default session not split into paper-size batches")
	}
}

// TestDefaultRunsApplied: a non-positive run count streams the paper's
// 1000 runs, ending at 1000 · 376 µs of modeled time.
func TestDefaultRunsApplied(t *testing.T) {
	d := NewDWave2X(&anneal.SimulatedAnnealer{Sweeps: 1, BetaStart: 1, BetaEnd: 1})
	got := session(d, trivialProblem(2), 0, 5)
	if len(got) != PaperTotalRuns {
		t.Fatalf("default runs = %d, want %d", len(got), PaperTotalRuns)
	}
	if last, want := got[len(got)-1].Elapsed, PaperTotalRuns*d.TimePerSample(); last != want {
		t.Errorf("last read-out at %v, want %v", last, want)
	}
}

func TestStreamBatchStopsWhenYieldReturnsFalse(t *testing.T) {
	d := NewDWave2X(&anneal.SimulatedAnnealer{Sweeps: 1, BetaStart: 1, BetaEnd: 1})
	d.RunsPerGauge = 10
	n := 0
	var sc Scratch
	d.StreamBatch(context.Background(), trivialProblem(2), nil, d.Batches(10, 6)[0], &sc, func(Readout) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("yield ran %d times after requesting a stop at 7", n)
	}
}

// TestStreamBatchCancellation: a cancelled ctx stops the batch between
// runs, and a batch started on a cancelled ctx yields nothing.
func TestStreamBatchCancellation(t *testing.T) {
	d := NewDWave2X(&anneal.SimulatedAnnealer{Sweeps: 1, BetaStart: 1, BetaEnd: 1})
	p := trivialProblem(2)
	b := d.Batches(100, 8)[0]
	var sc Scratch
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	d.StreamBatch(ctx, p, nil, b, &sc, func(Readout) bool {
		n++
		if n == 25 {
			cancel()
		}
		return true
	})
	if n != 25 {
		t.Errorf("cancellation after read-out 25 let %d read-outs through", n)
	}
	d.StreamBatch(ctx, p, nil, b, &sc, func(Readout) bool {
		t.Fatal("a batch on a cancelled ctx yielded a read-out")
		return true
	})
}

// TestStreamBatchIndependentOfBatchOrder is the property core's batch
// fan-out relies on: a batch's read-outs depend on the batch alone, not
// on which batches the worker's scratch streamed before it. Streaming
// the session in reverse order through a reused scratch must reproduce
// the forward stream's spins, energies and clock exactly.
func TestStreamBatchIndependentOfBatchOrder(t *testing.T) {
	p := randomProblem(9, 12)
	c := anneal.Compile(p)
	d := NewDWave2X(&anneal.SimulatedAnnealer{Sweeps: 4, BetaStart: 0.1, BetaEnd: 4})
	d.RunsPerGauge = 25
	batches := d.Batches(130, 42)

	var sc Scratch
	forward := make([][]reading, len(batches))
	for _, b := range batches {
		forward[b.Index] = streamBatch(d, c, b, &sc)
	}
	if got := len(forward[len(forward)-1]); got != 5 {
		t.Fatalf("last batch streamed %d read-outs, want 5", got)
	}
	for i := len(batches) - 1; i >= 0; i-- {
		if got := streamBatch(d, c, batches[i], &sc); !reflect.DeepEqual(got, forward[i]) {
			t.Fatalf("batch %d: reverse-order read-outs diverge from forward order", i)
		}
	}
	// A different seed must change the stream (the split is not constant).
	if other := session(d, p, 130, 43); reflect.DeepEqual(other, session(d, p, 130, 42)) {
		t.Error("seed 42 and 43 produced identical sessions")
	}
}

// TestStreamBatchAllocFree: on a warm scratch a whole batch, cold or
// warm, gauged or not, allocates nothing — the generator is re-seeded
// in place and the gauge lives in the scratch's packed mask.
func TestStreamBatchAllocFree(t *testing.T) {
	p := randomProblem(5, 70)
	c := anneal.Compile(p)
	warm := make([]uint64, anneal.WordsFor(c.N))
	anneal.RandomSpinsInto(anneal.NewRand(6), c.N, warm)
	for _, tc := range []struct {
		name    string
		disable bool
		warm    []uint64
	}{{"cold", false, nil}, {"cold-nogauge", true, nil}, {"warm", false, warm}} {
		d := NewDWave2X(&anneal.SimulatedAnnealer{Sweeps: 4, BetaStart: 0.1, BetaEnd: 8})
		d.RunsPerGauge = 5
		d.DisableGauges = tc.disable
		d.Warm = tc.warm
		batches := d.Batches(20, 7)
		var sc Scratch
		yield := func(Readout) bool { return true }
		d.StreamBatch(context.Background(), nil, c, batches[0], &sc, yield)
		i := 0
		if a := testing.AllocsPerRun(10, func() {
			d.StreamBatch(context.Background(), nil, c, batches[i%len(batches)], &sc, yield)
			i++
		}); a != 0 {
			t.Errorf("%s: StreamBatch allocates %v times per batch on a warm scratch, want 0", tc.name, a)
		}
	}
}

func TestNewDeviceFor(t *testing.T) {
	want := NewDWave2X(DefaultSampler())
	for _, kind := range []string{"chimera", "pegasus", "zephyr", "experimental-unknown"} {
		d := NewDeviceFor(kind, DefaultSampler())
		if d.AnnealTime != want.AnnealTime || d.ReadoutTime != want.ReadoutTime || d.RunsPerGauge != want.RunsPerGauge {
			t.Fatalf("%s: device params diverge from the 2X table row", kind)
		}
	}
}

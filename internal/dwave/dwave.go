// Package dwave simulates the D-Wave 2X device interface used in the
// paper's evaluation (Section 7.1): batched annealing runs with one random
// gauge transformation per batch, a fixed per-run annealing time of 129 µs
// and read-out time of 247 µs, and one spin read-out per run.
//
// The real hardware is unavailable to this reproduction, so the annealing
// cycle itself is performed by a sampler from internal/anneal (simulated
// annealing or simulated quantum annealing) on the identical physical
// Ising input. Elapsed device time is modeled: every run advances a
// modeled clock by the hardware constants, preserving the time axis of
// the paper's figures independently of simulation wall-clock time.
//
// Gauge batches are independent by construction — the paper's protocol
// draws a fresh random gauge every RunsPerGauge runs precisely so batches
// decorrelate — which makes them the natural unit of parallelism. Each
// batch samples from its own random stream derived by SplitMix64 from the
// session seed and the batch index, so spins and the modeled device
// clock are bit-identical at any worker count.
package dwave

import (
	"context"
	"time"

	"repro/internal/anneal"
	"repro/internal/ising"
	"repro/internal/splitmix"
)

// Paper timing constants (Section 7.1).
const (
	// PaperAnnealTime is the default annealing time per run.
	PaperAnnealTime = 129 * time.Microsecond
	// PaperReadoutTime is the read-out time per run.
	PaperReadoutTime = 247 * time.Microsecond
	// PaperRunsPerGauge is the number of annealing runs per gauge
	// transformation (10 batches of 100 runs = 1000 runs per test case).
	PaperRunsPerGauge = 100
	// PaperTotalRuns is the number of annealing runs per test case.
	PaperTotalRuns = 1000
)

// Device is a simulated quantum annealer.
type Device struct {
	// Sampler performs the annealing cycle. It must be safe for
	// concurrent use with distinct anneal.Rand instances (the built-in
	// samplers are configuration-only and qualify).
	Sampler anneal.Sampler
	// AnnealTime and ReadoutTime are charged to the modeled clock per run.
	AnnealTime, ReadoutTime time.Duration
	// RunsPerGauge is the batch size between gauge transformations.
	RunsPerGauge int
	// DisableGauges samples every run in the identity gauge (used by the
	// gauge ablation; the paper uses 10 random gauges per test case to
	// cancel qubit biases).
	DisableGauges bool
	// Warm, when non-nil and the Sampler implements anneal.WarmSampler,
	// starts every annealing run from this packed identity-gauge spin
	// state (bit set ⇔ spin −1, WordsFor(N) words, trailing bits clear)
	// instead of a uniform draw — the surrogate for hardware reverse
	// annealing from a previous incumbent. Sampling the original program
	// from Warm is sampling the batch's gauged program from Warm⊕gauge,
	// so the state is used as is. Warm runs draw a different rng
	// sequence than cold runs (see anneal.WarmSampler); results remain
	// bit-identical at any parallelism for a fixed (seed, Warm) pair.
	Warm []uint64
}

// DefaultSampler returns the annealing surrogate used by default:
// classical simulated annealing (the SQA surrogate is available for the
// sampler ablation).
func DefaultSampler() anneal.Sampler { return anneal.DefaultSA() }

// NewDWave2X returns a device with the paper's timing and batching
// parameters.
func NewDWave2X(s anneal.Sampler) *Device {
	return &Device{
		Sampler:      s,
		AnnealTime:   PaperAnnealTime,
		ReadoutTime:  PaperReadoutTime,
		RunsPerGauge: PaperRunsPerGauge,
	}
}

// deviceParams is the per-generation timing/batching table behind
// NewDeviceFor. Every generation currently charges the 2X constants:
// the cross-topology harness compares qubit footprint, chain length,
// and time-to-best on ONE modeled clock, so differences are attributable
// to connectivity alone (and the budget→runs policy, RunsForBudget,
// stays consistent for every kind). A calibrated device generation —
// Advantage's 20 µs anneals, say — would change exactly this row.
type deviceParams struct {
	annealTime, readoutTime time.Duration
	runsPerGauge            int
}

var deviceTable = map[string]deviceParams{
	"chimera": {PaperAnnealTime, PaperReadoutTime, PaperRunsPerGauge},
	"pegasus": {PaperAnnealTime, PaperReadoutTime, PaperRunsPerGauge},
	"zephyr":  {PaperAnnealTime, PaperReadoutTime, PaperRunsPerGauge},
}

// NewDeviceFor returns the simulated device for the annealer generation
// carrying the given topology kind ("chimera" selects exactly the
// paper's D-Wave 2X; unknown kinds get the 2X defaults too, so an
// experimental topology still solves).
func NewDeviceFor(kind string, s anneal.Sampler) *Device {
	p, ok := deviceTable[kind]
	if !ok {
		return NewDWave2X(s)
	}
	return &Device{
		Sampler:      s,
		AnnealTime:   p.annealTime,
		ReadoutTime:  p.readoutTime,
		RunsPerGauge: p.runsPerGauge,
	}
}

// TimePerSample is the modeled device time per annealing run + read-out.
func (d *Device) TimePerSample() time.Duration { return d.AnnealTime + d.ReadoutTime }

// Batch describes one gauge batch of a sampling session: Runs annealing
// runs under a single gauge transformation, drawn from the batch's
// private random stream.
type Batch struct {
	// Index is the batch position within the session.
	Index int
	// Start is the global run index of the batch's first run; run
	// Start+j completes at modeled time (Start+j+1)·TimePerSample.
	Start int
	// Runs is the number of annealing runs in this batch.
	Runs int
	// Seed seeds the batch's private random stream (gauge + anneals).
	Seed int64
}

// Batches splits a session of runs annealing runs (non-positive selects
// the paper's 1000) into gauge batches of RunsPerGauge runs each, with
// per-batch sub-seeds split from seed. The split is position-based, so
// the schedule — and therefore every downstream read-out — is independent
// of how many batches later execute concurrently.
func (d *Device) Batches(runs int, seed int64) []Batch {
	if runs <= 0 {
		runs = PaperTotalRuns
	}
	size := d.RunsPerGauge
	if size <= 0 {
		size = PaperRunsPerGauge
	}
	batches := make([]Batch, 0, (runs+size-1)/size)
	for start := 0; start < runs; start += size {
		n := size
		if start+n > runs {
			n = runs - start
		}
		batches = append(batches, Batch{
			Index: len(batches),
			Start: start,
			Runs:  n,
			Seed:  splitmix.Split(seed, int64(len(batches))),
		})
	}
	return batches
}

// Readout is one streamed annealing read-out: the packed spins (bit set
// ⇔ spin −1, anneal's convention) in the problem's original gauge, and
// the modeled completion time. The Words view aliases the worker's
// Scratch and is valid ONLY during the StreamBatch yield that delivered
// it — consumers decode-then-discard, copying out only what they keep
// (an incumbent).
type Readout struct {
	Words   []uint64
	Elapsed time.Duration
}

// Scratch is the per-worker arena of a sampling session: the batch's
// random generator, the sampler's kernel arena and the packed gauge
// mask. One worker owns it at a time and reuses it across every run of
// every batch it executes, so steady-state batches allocate nothing.
// The zero value is ready to use.
type Scratch struct {
	rng    anneal.Rand
	kernel anneal.Scratch
	gauge  []uint64
}

// StreamBatch executes one gauge batch sequentially, yielding each
// read-out in run order through sc without materializing any of them.
// Spins are expressed in the problem's original gauge. original is p
// compiled in the identity gauge; callers compile it once and share it
// across batches, and every batch samples it under its own gauge. p is
// read only when original is nil, which compiles it on the spot. The
// batch is deterministic in b alone, which is what lets it run on any
// worker without changing results. A cancelled ctx stops between runs;
// yield returning false aborts the remainder.
func (d *Device) StreamBatch(ctx context.Context, p *ising.Problem, original *anneal.Compiled, b Batch, sc *Scratch, yield func(Readout) bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	if original == nil {
		original = anneal.Compile(p)
	}
	n := original.N
	rng := &sc.rng
	rng.Seed(b.Seed)
	// The batch's gauge opens its stream: n Intn(2) draws, bit set ⇔
	// spin reversed. DisableGauges still draws them, so the anneals
	// that follow see the same stream either way.
	w := anneal.WordsFor(n)
	if cap(sc.gauge) < w {
		sc.gauge = make([]uint64, w)
	}
	gauge := sc.gauge[:w]
	clear(gauge)
	for i := 0; i < n; i++ {
		gauge[i>>6] |= uint64(rng.Bit()) << (uint(i) & 63)
	}
	if d.DisableGauges {
		gauge = nil
	}
	// Cold runs start from the uniform draw XOR the gauge (see
	// anneal.Sampler); warm runs start from Warm itself. Either way the
	// read-out is already in the original gauge.
	warmSampler, _ := d.Sampler.(anneal.WarmSampler)
	useWarm := warmSampler != nil && d.Warm != nil
	perSample := d.TimePerSample()
	for j := 0; j < b.Runs; j++ {
		if ctx.Err() != nil {
			return
		}
		if useWarm {
			warmSampler.SampleWarmInto(original, rng, &sc.kernel, d.Warm)
		} else {
			d.Sampler.SampleInto(original, rng, &sc.kernel, gauge)
		}
		ro := Readout{
			Words:   sc.kernel.Words(),
			Elapsed: time.Duration(b.Start+j+1) * perSample,
		}
		if !yield(ro) {
			return
		}
	}
}

package dwave

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/exec"
)

// TestWarmStartGaugeRoundTrip pins the gauge algebra of the warm path:
// with a zero-sweep sampler every run reads out exactly its initial
// state, so the original-gauge read-out must equal the warm words for
// EVERY random gauge (the gauge never touches a warm start).
func TestWarmStartGaugeRoundTrip(t *testing.T) {
	p := trivialProblem(70)
	d := NewDWave2X(&anneal.SimulatedAnnealer{Sweeps: 0, BetaStart: 0.1, BetaEnd: 8})
	warm := make([]uint64, anneal.WordsFor(p.N()))
	anneal.RandomSpinsInto(anneal.NewRand(21), p.N(), warm)
	d.Warm = warm

	var sc Scratch
	for _, b := range d.Batches(300, 5) {
		d.StreamBatch(context.Background(), p, nil, b, &sc, func(ro Readout) bool {
			for w := range warm {
				if ro.Words[w] != warm[w] {
					t.Fatalf("batch %d: zero-sweep warm read-out diverges from warm state at word %d", b.Index, w)
				}
			}
			return true
		})
	}
}

// TestWarmStartDeterministicAtAnyParallelism extends the determinism
// contract to warm sessions: fanning the batches out over 1 or 8
// workers, each streaming through its own worker-slot scratch as core
// does, yields bit-identical read-outs.
func TestWarmStartDeterministicAtAnyParallelism(t *testing.T) {
	p := trivialProblem(40)
	c := anneal.Compile(p)
	warm := make([]uint64, anneal.WordsFor(p.N()))
	anneal.RandomSpinsInto(anneal.NewRand(2), p.N(), warm)
	d := NewDWave2X(anneal.DefaultSA())
	d.Warm = warm
	batches := d.Batches(500, 9)

	run := func(parallelism int) [][]reading {
		scratches := make([]Scratch, exec.Parallelism(parallelism))
		out, err := exec.Map(context.Background(), parallelism, len(batches),
			func(tctx context.Context, i int) ([]reading, error) {
				return streamBatch(d, c, batches[i], &scratches[exec.WorkerID(tctx)]), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("warm session read-outs diverge across parallelism")
	}
}

// TestWarmIgnoredWithoutWarmSampler: a sampler without warm support must
// fall back to the cold path bit-for-bit.
type coldOnly struct{ anneal.Sampler }

func (c coldOnly) Name() string { return "cold-only" }

func TestWarmIgnoredWithoutWarmSampler(t *testing.T) {
	p := trivialProblem(30)
	warm := make([]uint64, anneal.WordsFor(p.N()))
	warm[0] = ^uint64(0) >> 34 // arbitrary non-zero state

	cold := NewDWave2X(coldOnly{anneal.DefaultSA()})
	warmDev := NewDWave2X(coldOnly{anneal.DefaultSA()})
	warmDev.Warm = warm

	if a, b := session(cold, p, 200, 4), session(warmDev, p, 200, 4); !reflect.DeepEqual(a, b) {
		t.Fatal("Warm changed a non-warm sampler's read-outs")
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/mqo"
	"repro/internal/topology"
)

// BenchmarkDecodeReadout measures the zero-copy read-out decode chain on
// a warm solve scratch: unpack physical bits, unembed chains, descend
// the logical QUBO, decode+repair into a solution of the caller's
// problem, swap-descend, and cost it — exactly the per-read-out work of
// the streaming solve loop. Instances are sized to the hardware graph (three queries per
// unit cell, the paper's 537-on-12×12 density rounded down).
func BenchmarkDecodeReadout(b *testing.B) {
	for _, grid := range []struct {
		kind       string
		rows, cols int
	}{
		{topology.ChimeraKind, 12, 12},
		{topology.ChimeraKind, 24, 24},
		{topology.PegasusKind, 12, 12},
		{topology.PegasusKind, 24, 24},
		{topology.ZephyrKind, 12, 12},
		{topology.ZephyrKind, 24, 24},
	} {
		b.Run(fmt.Sprintf("%s-%dx%d", grid.kind, grid.rows, grid.cols), func(b *testing.B) {
			g, err := topology.New(grid.kind, grid.rows, grid.cols)
			if err != nil {
				b.Fatalf("topology.New: %v", err)
			}
			rng := rand.New(rand.NewSource(3))
			class := mqo.Class{Queries: 3 * grid.rows * grid.cols, PlansPerQuery: 2}
			p, err := GenerateEmbeddable(rng, g, class, mqo.DefaultGeneratorConfig())
			if err != nil {
				b.Skipf("class %+v does not fit %s: %v", class, grid.kind, err)
			}
			comp, err := compile(p, Options{Graph: g}.withDefaults())
			if err != nil {
				b.Skipf("compile: %v", err)
			}
			n := comp.Program.N
			words := make([]uint64, anneal.WordsFor(n))
			anneal.RandomSpinsInto(anneal.NewRand(rng.Int63()), n, words)
			var sc solveScratch
			sc.grow(n, comp.QUBO.N(), p.NumQueries(), p.NumPlans())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, _ := comp.decode(p, words, &sc, true)
				if _, cerr := p.CostWith(sol, sc.selected); cerr != nil {
					b.Fatalf("decoded solution invalid: %v", cerr)
				}
			}
		})
	}
}

// TestDecodeReadoutAllocFree pins the decode chain at zero steady-state
// allocations on a warm scratch.
func TestDecodeReadoutAllocFree(t *testing.T) {
	g, err := topology.New(topology.ChimeraKind, 4, 4)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	p, err := GenerateEmbeddable(rng, g, mqo.Class{Queries: 3 * 16, PlansPerQuery: 2}, mqo.DefaultGeneratorConfig())
	if err != nil {
		t.Fatalf("GenerateEmbeddable: %v", err)
	}
	comp, err := compile(p, Options{Graph: g}.withDefaults())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	n := comp.Program.N
	words := make([]uint64, anneal.WordsFor(n))
	anneal.RandomSpinsInto(anneal.NewRand(rng.Int63()), n, words)
	var sc solveScratch
	sc.grow(n, comp.QUBO.N(), p.NumQueries(), p.NumPlans())
	decode := func() {
		sol, _ := comp.decode(p, words, &sc, true)
		if _, cerr := p.CostWith(sol, sc.selected); cerr != nil {
			t.Fatalf("decoded solution invalid: %v", cerr)
		}
	}
	decode() // warm
	if a := testing.AllocsPerRun(10, decode); a != 0 {
		t.Errorf("decode chain allocates %v allocs/run on a warm scratch, want 0", a)
	}
}

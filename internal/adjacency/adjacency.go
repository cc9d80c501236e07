// Package adjacency is the process-wide table of fault-free hardware
// adjacency. A graph's ideal coupler set depends only on its shape — the
// topology kind and its unit-cell grid — so every graph value of one
// shape reads the same neighbour lists. The table builds them once per
// shape and hands them out read-only; each graph keeps its own fault map
// and filters these rows only after its first fault.
package adjacency

import (
	"context"

	"repro/internal/hashutil"
	"repro/internal/plancache"
)

// capacity is the number of shapes the table holds at once. The three
// built-in kinds at the default 12×12 grid take three entries; the rest
// cover the other grids experiments and requests name. Eviction is
// exact LRU. A graph built from an evicted shape keeps its rows alive,
// so eviction only costs that shape a rebuild on its next request.
const capacity = 16

var table = plancache.NewSharded[[][]int](capacity, 1)

// Of returns the fault-free adjacency of the shape (kind, rows, cols):
// row q lists the neighbours of qubit q in the ideal topology, in the
// order build gave them. The first request for a shape runs build, and
// concurrent first requests share that one run.
//
// The rows are shared by every caller and are read-only. They share one
// backing array, and each row has len == cap, so appending to a row
// copies it instead of writing into the next one.
func Of(kind string, rows, cols int, build func() [][]int) [][]int {
	k := plancache.NewKeyer()
	hashutil.WriteString(k, kind)
	k.Int(rows)
	k.Int(cols)
	// Do fails only when the build fails or a wait is cancelled, and
	// neither can happen here.
	adj, _, _ := table.Do(context.Background(), k.Key(), func() ([][]int, error) {
		return pack(build()), nil
	})
	return adj
}

// pack moves every row into one backing array and caps each at its
// length.
func pack(adj [][]int) [][]int {
	n := 0
	for _, row := range adj {
		n += len(row)
	}
	flat := make([]int, 0, n)
	for q, row := range adj {
		start := len(flat)
		flat = append(flat, row...)
		adj[q] = flat[start:len(flat):len(flat)]
	}
	return adj
}

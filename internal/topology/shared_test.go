package topology

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// snapshot records everything a graph exposes, copying every adjacency
// row so later mutations of shared state show up as a difference.
type snapshot struct {
	working, couplers int
	rows              [][]int
	hash              []byte
}

func snap(g Graph) snapshot {
	s := snapshot{working: g.NumWorkingQubits(), couplers: g.NumCouplers()}
	for q := 0; q < g.NumQubits(); q++ {
		s.rows = append(s.rows, slices.Clone(g.Neighbors(q)))
	}
	var buf bytes.Buffer
	g.HashInto(&buf)
	s.hash = buf.Bytes()
	return s
}

func sameSnapshot(t *testing.T, label string, got, want snapshot) {
	t.Helper()
	if got.working != want.working || got.couplers != want.couplers {
		t.Fatalf("%s: %d working qubits and %d couplers, want %d and %d",
			label, got.working, got.couplers, want.working, want.couplers)
	}
	for q := range want.rows {
		if !slices.Equal(got.rows[q], want.rows[q]) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", label, q, got.rows[q], want.rows[q])
		}
	}
	if !bytes.Equal(got.hash, want.hash) {
		t.Fatalf("%s: HashInto bytes changed", label)
	}
}

// TestFaultsStayOnTheirGraph pins the value semantics of shared
// adjacency: breaking a qubit and a coupler on one graph leaves every
// other graph of the same shape fault-free, whether it was built
// before the faults or after.
func TestFaultsStayOnTheirGraph(t *testing.T) {
	for _, kind := range Kinds() {
		before, _ := New(kind, 5, 6)
		want := snap(before)

		broken, _ := New(kind, 5, 6)
		cg := broken.(CellGrid)
		q := cg.QubitAt(2, 3, 1)
		o := broken.Neighbors(q)[0]
		p := cg.QubitAt(1, 1, 6)
		broken.BreakCoupler(q, o)
		broken.BreakQubit(p)
		if broken.Working(p) || broken.HasCoupler(q, o) {
			t.Fatalf("%s: the faults did not apply to their own graph", kind)
		}

		after, _ := New(kind, 5, 6)
		for label, g := range map[string]Graph{"built before": before, "built after": after} {
			if !g.Working(p) || !g.HasCoupler(q, o) || !g.HasCoupler(p, g.Neighbors(p)[0]) {
				t.Fatalf("%s %s: another graph's faults show here", kind, label)
			}
			sameSnapshot(t, kind+" "+label, snap(g), want)
		}
		if snap(broken).couplers >= want.couplers {
			t.Fatalf("%s: the broken graph lost no couplers", kind)
		}
	}
}

// TestNeighborsFaultFreeAllocs pins the point of sharing: a fault-free
// Neighbors call is a slice lookup, and New of a shape already built
// costs a handful of small allocations instead of a rebuild.
func TestNeighborsFaultFreeAllocs(t *testing.T) {
	for _, kind := range Kinds() {
		g, _ := New(kind, 12, 12)
		n := g.NumQubits()
		if a := testing.AllocsPerRun(20, func() {
			for q := 0; q < n; q++ {
				g.Neighbors(q)
			}
		}); a != 0 {
			t.Errorf("%s: fault-free Neighbors allocates %.0f times per pass, want 0", kind, a)
		}
		if a := testing.AllocsPerRun(20, func() { New(kind, 12, 12) }); a > 10 {
			t.Errorf("%s: New of a built shape allocates %.0f times, want at most 10", kind, a)
		}
	}
}

// freshRows hands each call a grid height no earlier call used, so a
// test that needs a shape the table has never built gets one even when
// the test binary repeats it (-count).
var freshRows atomic.Int64

// TestConcurrentNewBuildsOnce: many goroutines asking for one new shape
// at once all get the same adjacency, read from one shared build.
func TestConcurrentNewBuildsOnce(t *testing.T) {
	for _, kind := range Kinds() {
		rows := 40 + int(freshRows.Add(1))
		const n = 16
		graphs := make([]Graph, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range graphs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				g, err := New(kind, rows, 2)
				if err != nil {
					t.Error(err)
					return
				}
				graphs[i] = g
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		want := snap(graphs[0])
		for i, g := range graphs[1:] {
			sameSnapshot(t, kind, snap(g), want)
			for q := 0; q < g.NumQubits(); q++ {
				if &g.Neighbors(q)[0] != &graphs[0].Neighbors(q)[0] {
					t.Fatalf("%s: graph %d reads a separately built row for qubit %d", kind, i+1, q)
				}
			}
		}
	}
}

// TestAppendToNeighborsCopies: a caller appending to a returned row
// gets its own copy; the row, and its neighbours in the shared backing
// array, stay as the next caller expects them.
func TestAppendToNeighborsCopies(t *testing.T) {
	for _, kind := range Kinds() {
		g, _ := New(kind, 3, 4)
		want := snap(g)
		for q := 0; q < g.NumQubits(); q++ {
			row := g.Neighbors(q)
			if len(row) != cap(row) {
				t.Fatalf("%s: Neighbors(%d) has len %d but cap %d", kind, q, len(row), cap(row))
			}
			_ = append(row, -1)
		}
		next, _ := New(kind, 3, 4)
		sameSnapshot(t, kind, snap(next), want)
	}
}

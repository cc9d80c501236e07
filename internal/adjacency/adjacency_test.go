package adjacency

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOfBuildsEachShapeOnce: concurrent first requests for one shape run
// build once and share its rows; another shape gets its own build.
func TestOfBuildsEachShapeOnce(t *testing.T) {
	var builds atomic.Int64
	build := func() [][]int {
		builds.Add(1)
		return [][]int{{1, 2}, {0}, {0, 3}, {2}}
	}
	kind := "once-" + t.Name()
	rows := int(nextShape.Add(1))
	const n = 16
	got := make([][][]int, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Of(kind, rows, 1, build)
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d concurrent first requests ran build %d times, want 1", n, b)
	}
	for i := range got {
		if &got[i][0][0] != &got[0][0][0] {
			t.Fatalf("request %d got a separate copy of the rows", i)
		}
	}
	Of(kind, rows, 2, build)
	if b := builds.Load(); b != 2 {
		t.Fatalf("a second shape ran build %d times in total, want 2", b)
	}
}

// nextShape keeps every test invocation on shapes the table has not
// built yet, even when the binary repeats tests (-count).
var nextShape atomic.Int64

// TestOfPacksRowsFull: the rows keep build's order and contents, and
// each row's cap equals its len, so appending to one cannot write into
// the next.
func TestOfPacksRowsFull(t *testing.T) {
	want := [][]int{{1, 2}, {0}, {}, {0, 5, 4}}
	adj := Of("pack-"+t.Name(), int(nextShape.Add(1)), 1, func() [][]int {
		out := make([][]int, len(want))
		for q, row := range want {
			out[q] = append(make([]int, 0, 8), row...)
		}
		return out
	})
	for q, row := range adj {
		if !slices.Equal(row, want[q]) {
			t.Fatalf("row %d = %v, want %v", q, row, want[q])
		}
		if len(row) != cap(row) {
			t.Fatalf("row %d has len %d but cap %d", q, len(row), cap(row))
		}
		_ = append(row, -1)
	}
	if adj[3][0] != 0 {
		t.Fatalf("appending to row 2 wrote into row 3: %v", adj[3])
	}
}

// TestOfEvictedShapeRebuilds: past the table's capacity the least
// recently used shape leaves the table. A caller holding its rows keeps
// them intact, and the shape's next request builds it again.
func TestOfEvictedShapeRebuilds(t *testing.T) {
	var builds atomic.Int64
	build := func() [][]int {
		builds.Add(1)
		return [][]int{{1}, {0}}
	}
	kind := "evict-" + t.Name()
	first := int(nextShape.Add(1))
	held := Of(kind, first, 1, build)
	for i := 0; i < capacity; i++ {
		Of(kind, int(nextShape.Add(1)), 1, build)
	}
	again := Of(kind, first, 1, build)
	if b := builds.Load(); b != capacity+2 {
		t.Fatalf("%d builds for %d shapes and one evicted repeat, want %d", b, capacity+1, capacity+2)
	}
	if &again[0][0] == &held[0][0] {
		t.Fatal("the evicted shape was still served from the table")
	}
	if !slices.Equal(held[0], []int{1}) || !slices.Equal(held[1], []int{0}) {
		t.Fatalf("the held rows changed after eviction: %v", held)
	}
}

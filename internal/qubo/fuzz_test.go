package qubo

import (
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hashutil"
)

// FuzzBuildQUBO fuzzes QUBO construction as an op-stream interpreter:
// the input bytes drive a sequence of AddLinear/AddQuadratic calls
// (including the i==j fold and repeated accumulation on one coupling),
// and the resulting sparse problem is checked against an independently
// maintained dense weight matrix — energies, flip deltas, accessor
// symmetry, coupling enumeration, and clones must all agree. Every
// coupling read goes through the adjacency rows, so the reads are
// checked again after Freeze drops the pair index, and on a Clone of
// the frozen problem that the op stream then extends. Run the smoke
// pass with:
//
//	go test -fuzz=FuzzBuildQUBO -fuzztime=20s ./internal/qubo
func FuzzBuildQUBO(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 4, 1, 0, 1, 8})
	f.Add([]byte{8, 1, 2, 3, 252, 1, 3, 2, 4, 0, 7, 7, 16, 1, 2, 3, 4})
	f.Add([]byte{1, 1, 0, 0, 200})
	f.Add([]byte{16, 1, 15, 14, 127, 1, 14, 15, 129, 1, 5, 5, 50})
	// Extending the clone hits the existing pair (1,2).
	f.Add([]byte{3, 1, 0, 2, 8, 1, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		q := New(n)
		ref := newDenseRef(n)
		ref.apply(q, data[1:], 0)
		q.Offset = float64(int8(data[0])) / 8
		dense := ref.w

		denseEnergy := func(x []bool) float64 {
			e := q.Offset
			for i := 0; i < n; i++ {
				if !x[i] {
					continue
				}
				e += dense[i][i]
				for j := i + 1; j < n; j++ {
					if x[j] {
						e += dense[i][j]
					}
				}
			}
			return e
		}

		// A handful of assignments derived from the input, plus the two
		// constant ones.
		assignments := [][]bool{make([]bool, n), make([]bool, n)}
		for i := range assignments[1] {
			assignments[1][i] = true
		}
		for k := 0; k+1 < len(data) && k < 4; k++ {
			x := make([]bool, n)
			for i := range x {
				x[i] = (int(data[k+1])>>(i%8))&1 == 1
			}
			assignments = append(assignments, x)
		}

		clone := q.Clone()
		for _, x := range assignments {
			want := denseEnergy(x)
			if got := q.Energy(x); !closeEnough(got, want) {
				t.Fatalf("Energy(%v) = %v, dense recompute %v", x, got, want)
			}
			if got := clone.Energy(x); !closeEnough(got, q.Energy(x)) {
				t.Fatalf("clone energy diverges: %v vs %v", got, q.Energy(x))
			}
			for i := 0; i < n; i++ {
				flipped := append([]bool(nil), x...)
				flipped[i] = !flipped[i]
				want := q.Energy(flipped) - q.Energy(x)
				if got := q.FlipDelta(x, i); !closeEnough(got, want) {
					t.Fatalf("FlipDelta(%v, %d) = %v, want %v", x, i, got, want)
				}
			}
		}

		// Accessors: symmetry and agreement with the dense matrix.
		for i := 0; i < n; i++ {
			if got := q.Linear(i); !closeEnough(got, dense[i][i]) {
				t.Fatalf("Linear(%d) = %v, want %v", i, got, dense[i][i])
			}
			for j := i + 1; j < n; j++ {
				if q.Quadratic(i, j) != q.Quadratic(j, i) {
					t.Fatalf("Quadratic not symmetric at (%d,%d)", i, j)
				}
				if got := q.Quadratic(i, j); !closeEnough(got, dense[i][j]) {
					t.Fatalf("Quadratic(%d,%d) = %v, want %v", i, j, got, dense[i][j])
				}
			}
		}
		prev := Coupling{I: -1, J: -1}
		for _, c := range q.Couplings() {
			if c.I >= c.J {
				t.Fatalf("coupling %+v not canonical (I < J)", c)
			}
			if c.I < prev.I || (c.I == prev.I && c.J <= prev.J) {
				t.Fatalf("couplings not sorted: %+v after %+v", c, prev)
			}
			prev = c
		}

		ref.offset = q.Offset
		ref.check(t, "built", q)
		couplings, fingerprint := q.Couplings(), q.Fingerprint()
		q.Freeze()
		ref.check(t, "frozen", q)
		if !reflect.DeepEqual(q.Couplings(), couplings) || q.Fingerprint() != fingerprint {
			t.Fatal("Freeze changed the couplings or the fingerprint")
		}
		extended := q.Clone()
		ext := ref.clone()
		ext.apply(extended, data[1:], 1)
		ext.check(t, "extended clone", extended)
		if !reflect.DeepEqual(q.Couplings(), couplings) || q.Fingerprint() != fingerprint {
			t.Fatal("extending a clone changed the frozen original")
		}
	})
}

// denseRef is FuzzBuildQUBO's reference: a dense weight matrix (w[i][j]
// with i <= j, the diagonal holding the linear weights) and the set of
// pairs ever coupled. It adds every weight in the same order as the
// sparse problem, so the two agree bit for bit.
type denseRef struct {
	w       [][]float64
	coupled map[[2]int]bool
	offset  float64
}

func newDenseRef(n int) *denseRef {
	r := &denseRef{w: make([][]float64, n), coupled: map[[2]int]bool{}}
	for i := range r.w {
		r.w[i] = make([]float64, n)
	}
	return r
}

func (r *denseRef) clone() *denseRef {
	c := newDenseRef(len(r.w))
	for i := range r.w {
		copy(c.w[i], r.w[i])
	}
	for k := range r.coupled {
		c.coupled[k] = true
	}
	c.offset = r.offset
	return c
}

// apply interprets ops (4 bytes each: op, i, j, weight) on q and on the
// reference, shifting i by shift.
func (r *denseRef) apply(q *Problem, ops []byte, shift int) {
	n := len(r.w)
	for ; len(ops) >= 4; ops = ops[4:] {
		op, i, j := ops[0]%2, (int(ops[1])+shift)%n, int(ops[2])%n
		w := float64(int8(ops[3])) / 4
		if op == 0 {
			q.AddLinear(i, w)
			r.w[i][i] += w
			continue
		}
		q.AddQuadratic(i, j, w)
		if i == j {
			r.w[i][i] += w // documented fold: x_i² = x_i
			continue
		}
		a, b := min(i, j), max(i, j)
		r.w[a][b] += w
		r.coupled[[2]int{a, b}] = true
	}
}

// check requires q's coupling reads — Couplings, NumQuadratic,
// Quadratic and Fingerprint — to equal the reference exactly.
func (r *denseRef) check(t *testing.T, stage string, q *Problem) {
	t.Helper()
	n := len(r.w)
	if got := q.NumQuadratic(); got != len(r.coupled) {
		t.Fatalf("%s: NumQuadratic = %d, want %d", stage, got, len(r.coupled))
	}
	var want []Coupling
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if got := q.Quadratic(i, j); got != r.w[i][j] || q.Quadratic(j, i) != got {
				t.Fatalf("%s: Quadratic(%d,%d) = %v, want %v", stage, i, j, got, r.w[i][j])
			}
			if r.coupled[[2]int{i, j}] {
				want = append(want, Coupling{I: i, J: j, W: r.w[i][j]})
			}
		}
	}
	if got := q.Couplings(); !slices.Equal(got, want) {
		t.Fatalf("%s: Couplings = %v, want %v", stage, got, want)
	}
	fingerprint := hashutil.Sum64(func(w io.Writer) {
		hashutil.WriteInt(w, n)
		for i := 0; i < n; i++ {
			hashutil.WriteF64(w, r.w[i][i])
		}
		hashutil.WriteInt(w, len(want))
		for _, c := range want {
			hashutil.WriteInt(w, c.I)
			hashutil.WriteInt(w, c.J)
			hashutil.WriteF64(w, c.W)
		}
		hashutil.WriteF64(w, r.offset)
	})
	if got := q.Fingerprint(); got != fingerprint {
		t.Fatalf("%s: Fingerprint = %#x, the reference encoding hashes to %#x", stage, got, fingerprint)
	}
}

// closeEnough compares accumulated float sums with a scaled tolerance.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

package topology

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/adjacency"
	"repro/internal/hashutil"
)

// sortPairs orders broken-coupler pairs lexicographically for the
// canonical fingerprint stream.
func sortPairs(pairs [][2]int) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
}

// Cellular is the shared implementation behind the cell-structured
// topologies that are not Chimera (Pegasus, Zephyr): a Rows×Cols grid of
// 8-qubit K4,4 unit cells whose ideal coupler set is precomputed from a
// per-kind adjacency rule, plus the same mutable fault map semantics as
// chimera.Graph. Adjacency lists are kept in ascending qubit order, so
// every iteration over the graph is deterministic. They are built once
// per (kind, rows, cols) and shared read-only by every graph of that
// shape (see repro/internal/adjacency); the fault map is the graph's
// own and stays nil until its first fault.
type Cellular struct {
	kind       string
	display    string
	rows, cols int
	maxDegree  int

	adj [][]int // shared ideal-topology adjacency, ascending, read-only

	brokenQubit   []bool
	brokenCoupler map[[2]int]bool
}

// coupleRule reports whether the ideal topology couples qubits a and b
// (a ≠ b, both in range). It must be symmetric; newCellular evaluates it
// over ordered pairs only and mirrors the result.
type coupleRule func(g *Cellular, a, b int) bool

// newCellular returns a fault-free cellular topology whose adjacency
// comes from the shared table, built from the coupler rule on the
// shape's first request.
func newCellular(kind, display string, rows, cols, maxDegree int, rule coupleRule) *Cellular {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("%s: non-positive dimensions", kind))
	}
	g := &Cellular{
		kind:      kind,
		display:   display,
		rows:      rows,
		cols:      cols,
		maxDegree: maxDegree,
	}
	g.adj = adjacency.Of(kind, rows, cols, func() [][]int { return g.idealAdjacency(rule) })
	return g
}

// idealAdjacency evaluates rule per qubit over a candidate window of
// nearby cells (all rules are local: couplers never span more than two
// cell rows or columns), keeping construction linear in the qubit
// count.
func (g *Cellular) idealAdjacency(rule coupleRule) [][]int {
	adj := make([][]int, g.NumQubits())
	for q := range adj {
		r, c := g.Cell(q)
		for rr := r - 2; rr <= r+2; rr++ {
			for cc := c - 2; cc <= c+2; cc++ {
				if rr < 0 || rr >= g.rows || cc < 0 || cc >= g.cols {
					continue
				}
				for k := 0; k < CellSize; k++ {
					o := g.QubitAt(rr, cc, k)
					if o != q && rule(g, q, o) {
						adj[q] = append(adj[q], o)
					}
				}
			}
		}
		if len(adj[q]) > g.maxDegree {
			panic(fmt.Sprintf("%s: qubit %d has degree %d beyond the bound %d",
				g.kind, q, len(adj[q]), g.maxDegree))
		}
	}
	return adj
}

// Kind identifies the topology family.
func (g *Cellular) Kind() string { return g.kind }

// Dims returns the unit-cell grid dimensions.
func (g *Cellular) Dims() (rows, cols int) { return g.rows, g.cols }

// MaxDegree returns the ideal topology's coupler bound per qubit.
func (g *Cellular) MaxDegree() int { return g.maxDegree }

// NumQubits returns the total qubit count including broken ones.
func (g *Cellular) NumQubits() int { return g.rows * g.cols * CellSize }

// NumWorkingQubits counts functional qubits.
func (g *Cellular) NumWorkingQubits() int {
	n := g.NumQubits()
	for _, b := range g.brokenQubit {
		if b {
			n--
		}
	}
	return n
}

// Cell returns the (row, col) of the unit cell containing qubit q.
func (g *Cellular) Cell(q int) (row, col int) {
	cell := q / CellSize
	return cell / g.cols, cell % g.cols
}

// QubitAt returns the qubit id at cell (row, col) with in-cell index k.
func (g *Cellular) QubitAt(row, col, k int) int {
	if row < 0 || row >= g.rows || col < 0 || col >= g.cols || k < 0 || k >= CellSize {
		panic(fmt.Sprintf("%s: invalid coordinates (%d,%d,%d)", g.kind, row, col, k))
	}
	return (row*g.cols+col)*CellSize + k
}

// Working reports whether qubit q is functional.
func (g *Cellular) Working(q int) bool {
	return q >= 0 && q < g.NumQubits() && (g.brokenQubit == nil || !g.brokenQubit[q])
}

// BreakQubit marks qubit q as broken.
func (g *Cellular) BreakQubit(q int) {
	if q < 0 || q >= g.NumQubits() {
		panic(fmt.Sprintf("%s: qubit %d out of range", g.kind, q))
	}
	if g.brokenQubit == nil {
		g.brokenQubit = make([]bool, g.NumQubits())
	}
	g.brokenQubit[q] = true
}

// topologyCoupler reports whether the ideal (fault-free) topology
// couples a and b.
func (g *Cellular) topologyCoupler(a, b int) bool {
	if a < 0 || a >= g.NumQubits() {
		return false
	}
	for _, o := range g.adj[a] {
		if o == b {
			return true
		}
	}
	return false
}

// BreakCoupler marks the coupler between a and b as broken. It panics if
// the topology has no such coupler.
func (g *Cellular) BreakCoupler(a, b int) {
	if !g.topologyCoupler(a, b) {
		panic(fmt.Sprintf("%s: no coupler between %d and %d", g.kind, a, b))
	}
	if a > b {
		a, b = b, a
	}
	if g.brokenCoupler == nil {
		g.brokenCoupler = make(map[[2]int]bool)
	}
	g.brokenCoupler[[2]int{a, b}] = true
}

// HasCoupler reports whether a working coupler joins a and b.
func (g *Cellular) HasCoupler(a, b int) bool {
	if !g.topologyCoupler(a, b) || !g.Working(a) || !g.Working(b) {
		return false
	}
	if a > b {
		a, b = b, a
	}
	return !g.brokenCoupler[[2]int{a, b}]
}

// Neighbors returns the working qubits adjacent to q via working
// couplers, in ascending qubit order. It returns nil when q is broken.
// On a fault-free graph it returns the shared adjacency row without
// allocating; the row is read-only.
func (g *Cellular) Neighbors(q int) []int {
	if !g.Working(q) {
		return nil
	}
	if g.brokenQubit == nil && g.brokenCoupler == nil {
		return g.adj[q]
	}
	var out []int
	for _, o := range g.adj[q] {
		if g.HasCoupler(q, o) {
			out = append(out, o)
		}
	}
	return out
}

// NumCouplers counts working couplers.
func (g *Cellular) NumCouplers() int {
	n := 0
	for q := 0; q < g.NumQubits(); q++ {
		for _, o := range g.Neighbors(q) {
			if o > q {
				n++
			}
		}
	}
	return n
}

// HashInto streams the canonical fingerprint encoding — kind tag,
// dimensions, sorted fault map — into w, the same layout as
// chimera.Graph.HashInto so every topology's cache-key contribution is
// derived identically.
func (g *Cellular) HashInto(w io.Writer) {
	hashutil.WriteString(w, g.kind)
	hashutil.WriteInt(w, g.rows)
	hashutil.WriteInt(w, g.cols)
	var broken []int
	for q, b := range g.brokenQubit {
		if b {
			broken = append(broken, q)
		}
	}
	hashutil.WriteInt(w, len(broken))
	for _, q := range broken {
		hashutil.WriteInt(w, q)
	}
	pairs := make([][2]int, 0, len(g.brokenCoupler))
	for k, b := range g.brokenCoupler {
		if b {
			pairs = append(pairs, k)
		}
	}
	sortPairs(pairs)
	hashutil.WriteInt(w, len(pairs))
	for _, p := range pairs {
		hashutil.WriteInt(w, p[0])
		hashutil.WriteInt(w, p[1])
	}
}

// Fingerprint returns a 64-bit digest of HashInto's canonical encoding.
func (g *Cellular) Fingerprint() uint64 { return hashutil.Sum64(g.HashInto) }

// Render draws the unit-cell grid as ASCII art, each cell showing its
// working-qubit count — the cross-topology analogue of chimera's
// textual Figure 1.
func (g *Cellular) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %dx%d (%d qubits, %d working, %d couplers)\n",
		g.display, g.rows, g.cols, g.NumQubits(), g.NumWorkingQubits(), g.NumCouplers())
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			working := 0
			for k := 0; k < CellSize; k++ {
				if g.Working(g.QubitAt(r, c, k)) {
					working++
				}
			}
			fmt.Fprintf(&b, "[%d]", working)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

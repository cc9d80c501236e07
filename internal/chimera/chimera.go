// Package chimera models the D-Wave Chimera hardware graph (Section 2 of
// the paper): a grid of unit cells, each a complete bipartite K4,4 over
// eight qubits arranged in two "colons" (columns) of four. Qubits in the
// left colon connect to their counterparts in the cells above and below;
// qubits in the right colon connect to their counterparts in the cells to
// the left and right. Each qubit therefore touches at most six couplers.
//
// Manufacturing is imperfect: a fault map marks broken qubits and couplers,
// which embeddings must route around (Figure 2d).
package chimera

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/adjacency"
)

// Kind is the topology registry name of the Chimera graph.
const Kind = "chimera"

// CellSize is the number of qubits per unit cell.
const CellSize = 8

// Half is the number of qubits per colon (half-cell).
const Half = 4

// MaxDegree is the coupler bound of the Chimera topology: four intra-cell
// couplers (K4,4) plus two inter-cell couplers per qubit.
const MaxDegree = 6

// Graph is a Chimera topology of Rows×Cols unit cells with an optional
// fault map. Qubit i lives in cell (i/8) with in-cell index i%8; in-cell
// indices 0-3 form the left colon, 4-7 the right colon.
//
// The fault-free adjacency is shared by every graph of the same
// dimensions (see repro/internal/adjacency); the fault map is the
// graph's own and stays nil until its first fault.
type Graph struct {
	Rows, Cols int

	adj [][]int // shared fault-free adjacency, read-only

	brokenQubit   []bool
	brokenCoupler map[[2]int]bool
}

// NewGraph creates a fully functional Rows×Cols Chimera graph.
func NewGraph(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("chimera: non-positive dimensions")
	}
	g := &Graph{Rows: rows, Cols: cols}
	g.adj = adjacency.Of(Kind, rows, cols, g.idealAdjacency)
	return g
}

// idealAdjacency lists each qubit's fault-free neighbours in Chimera's
// historical order: the four qubits of the other colon in the same
// cell, then the same-index qubit one cell up and one cell down (left
// colon) or one cell left and one cell right (right colon).
func (g *Graph) idealAdjacency() [][]int {
	adj := make([][]int, g.NumQubits())
	for q := range adj {
		row, col := g.Cell(q)
		k := q % CellSize
		out := make([]int, 0, MaxDegree)
		if k < Half {
			for kk := Half; kk < CellSize; kk++ {
				out = append(out, g.QubitAt(row, col, kk))
			}
			if row > 0 {
				out = append(out, g.QubitAt(row-1, col, k))
			}
			if row < g.Rows-1 {
				out = append(out, g.QubitAt(row+1, col, k))
			}
		} else {
			for kk := 0; kk < Half; kk++ {
				out = append(out, g.QubitAt(row, col, kk))
			}
			if col > 0 {
				out = append(out, g.QubitAt(row, col-1, k))
			}
			if col < g.Cols-1 {
				out = append(out, g.QubitAt(row, col+1, k))
			}
		}
		adj[q] = out
	}
	return adj
}

// Kind identifies the topology family in registries and fingerprints.
func (g *Graph) Kind() string { return Kind }

// Dims returns the unit-cell grid dimensions.
func (g *Graph) Dims() (rows, cols int) { return g.Rows, g.Cols }

// MaxDegree returns the topology's coupler bound per qubit.
func (g *Graph) MaxDegree() int { return MaxDegree }

// NumQubits returns the total qubit count including broken ones.
func (g *Graph) NumQubits() int { return g.Rows * g.Cols * CellSize }

// NumWorkingQubits returns the count of functional qubits.
func (g *Graph) NumWorkingQubits() int {
	n := g.NumQubits()
	for _, b := range g.brokenQubit {
		if b {
			n--
		}
	}
	return n
}

// Cell returns the (row, col) of the unit cell containing qubit q.
func (g *Graph) Cell(q int) (row, col int) {
	cell := q / CellSize
	return cell / g.Cols, cell % g.Cols
}

// InCellIndex returns the position of q within its unit cell (0-7).
func (g *Graph) InCellIndex(q int) int { return q % CellSize }

// QubitAt returns the qubit id at unit cell (row, col) with in-cell index k.
func (g *Graph) QubitAt(row, col, k int) int {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols || k < 0 || k >= CellSize {
		panic(fmt.Sprintf("chimera: invalid coordinates (%d,%d,%d)", row, col, k))
	}
	return (row*g.Cols+col)*CellSize + k
}

// IsLeftColon reports whether q belongs to the left colon of its cell.
func (g *Graph) IsLeftColon(q int) bool { return q%CellSize < Half }

// Working reports whether qubit q is functional.
func (g *Graph) Working(q int) bool {
	return q >= 0 && q < g.NumQubits() && (g.brokenQubit == nil || !g.brokenQubit[q])
}

// BreakQubit marks qubit q as broken.
func (g *Graph) BreakQubit(q int) {
	if q < 0 || q >= g.NumQubits() {
		panic(fmt.Sprintf("chimera: qubit %d out of range", q))
	}
	if g.brokenQubit == nil {
		g.brokenQubit = make([]bool, g.NumQubits())
	}
	g.brokenQubit[q] = true
}

// BreakCoupler marks the coupler between a and b as broken. It panics if
// the topology has no such coupler.
func (g *Graph) BreakCoupler(a, b int) {
	if !g.topologyCoupler(a, b) {
		panic(fmt.Sprintf("chimera: no coupler between %d and %d", a, b))
	}
	if a > b {
		a, b = b, a
	}
	if g.brokenCoupler == nil {
		g.brokenCoupler = make(map[[2]int]bool)
	}
	g.brokenCoupler[[2]int{a, b}] = true
}

// topologyCoupler reports whether the ideal (fault-free) topology couples
// a and b.
func (g *Graph) topologyCoupler(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= g.NumQubits() || b >= g.NumQubits() {
		return false
	}
	ar, ac := g.Cell(a)
	br, bc := g.Cell(b)
	ak, bk := a%CellSize, b%CellSize
	if ar == br && ac == bc {
		// Intra-cell: K4,4 between colons, no same-colon edges.
		return (ak < Half) != (bk < Half)
	}
	if ak != bk {
		return false // inter-cell couplers link same in-cell indices only
	}
	if ak < Half {
		// Left colon couples vertically.
		return ac == bc && (ar-br == 1 || br-ar == 1)
	}
	// Right colon couples horizontally.
	return ar == br && (ac-bc == 1 || bc-ac == 1)
}

// HasCoupler reports whether a working coupler joins a and b: the topology
// must provide it, both endpoints must work, and the coupler itself must
// not be broken.
func (g *Graph) HasCoupler(a, b int) bool {
	if !g.topologyCoupler(a, b) || !g.Working(a) || !g.Working(b) {
		return false
	}
	if a > b {
		a, b = b, a
	}
	return !g.brokenCoupler[[2]int{a, b}]
}

// Neighbors returns the working qubits adjacent to q via working couplers.
// It returns nil when q itself is broken. On a fault-free graph it
// returns the shared adjacency row without allocating; the row is
// read-only.
func (g *Graph) Neighbors(q int) []int {
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
func (g *Graph) NumCouplers() int {
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

// DWave2X returns a 12×12 Chimera graph (1152 qubits) matching the paper's
// device description. With brokenQubits > 0, that many qubits are broken
// at positions drawn deterministically from seed; the paper's machine had
// 55 broken qubits (1097 of 1152 functional).
func DWave2X(brokenQubits int, seed int64) *Graph {
	g := NewGraph(12, 12)
	if brokenQubits <= 0 {
		return g
	}
	if brokenQubits > g.NumQubits() {
		panic("chimera: more broken qubits than qubits")
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.NumQubits())
	for _, q := range perm[:brokenQubits] {
		g.BreakQubit(q)
	}
	return g
}

// PaperBrokenQubits is the number of non-functional qubits on the machine
// used in the paper's evaluation.
const PaperBrokenQubits = 55

// Render draws the unit-cell grid as ASCII art (a textual Figure 1). Each
// cell shows its working-qubit count; fully working cells render as "8".
func (g *Graph) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chimera %dx%d (%d qubits, %d working, %d couplers)\n",
		g.Rows, g.Cols, g.NumQubits(), g.NumWorkingQubits(), g.NumCouplers())
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
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

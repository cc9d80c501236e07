// Package topology abstracts the annealer hardware graph behind a
// pluggable interface. The paper targets the D-Wave 2X's Chimera graph
// (Section 2); current-generation annealers use denser Pegasus- and
// Zephyr-style topologies whose higher connectivity changes embedding
// cost (Theorem 3's qubit counts) and therefore every downstream result.
// Everything above this layer — embedding, compilation, caching, the
// facade, the harness — works against Graph and never names a concrete
// topology.
//
// Three kinds are built in:
//
//   - "chimera": 8-qubit K4,4 unit cells, vertical/horizontal inter-cell
//     couplers, degree ≤ 6 (repro/internal/chimera, the paper's device).
//   - "pegasus": Chimera's cells plus odd couplers pairing parallel
//     qubits and internal couplers reaching the adjacent cells along
//     each qubit's length, degree ≤ 15.
//   - "zephyr": longer internal reach (each qubit spans four cells) and
//     a full odd-coupler ring per colon, degree ≤ 20.
//
// Pegasus and Zephyr are supersets of Chimera's coupler set on the same
// cell grid, so every Chimera embedding remains valid on them while the
// extra density admits shorter chains (embedding.Greedy exploits it).
package topology

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/chimera"
)

// CellSize is the number of qubits per unit cell, shared by every
// built-in topology (all three families tile 8-qubit K4,4 cells).
const CellSize = 8

// Half is the number of qubits per colon (half-cell).
const Half = 4

// Graph is an annealer hardware topology with a mutable fault map. A
// qubit id is dense in [0, NumQubits()); couplers are unordered qubit
// pairs. Implementations must be deterministic: two graphs of the same
// kind, dimensions, and fault history expose identical adjacency and
// identical HashInto streams. The built-in kinds share one fault-free
// adjacency per (kind, rows, cols) across the process, and each graph
// value owns its fault map: a fault on one graph never shows on
// another.
//
// Fault semantics: BreakQubit/BreakCoupler mark hardware as inoperable.
// Working(q) is false for broken qubits; HasCoupler(a, b) is false when
// the ideal topology lacks the coupler, either endpoint is broken, or
// the coupler itself is broken; Neighbors(q) lists working qubits
// reachable over working couplers (nil when q itself is broken).
type Graph interface {
	// Kind names the topology family ("chimera", "pegasus", "zephyr").
	Kind() string
	// Dims returns the unit-cell grid dimensions.
	Dims() (rows, cols int)
	// NumQubits is the total qubit count including broken ones.
	NumQubits() int
	// NumWorkingQubits counts functional qubits.
	NumWorkingQubits() int
	// NumCouplers counts working couplers.
	NumCouplers() int
	// MaxDegree is the ideal topology's coupler bound per qubit.
	MaxDegree() int
	// Working reports whether qubit q is functional.
	Working(q int) bool
	// HasCoupler reports whether a working coupler joins a and b.
	HasCoupler(a, b int) bool
	// Neighbors returns the working qubits adjacent to q via working
	// couplers, in ascending qubit order for the cellular topologies
	// (Chimera's historical order is preserved for byte-compatibility).
	// The returned slice is shared and read-only: on a fault-free graph
	// it is the adjacency row every graph of the same shape reads.
	// Appending to it is safe (the row's len equals its cap, so append
	// copies); writing into it is not.
	Neighbors(q int) []int
	// BreakQubit marks qubit q as broken.
	BreakQubit(q int)
	// BreakCoupler marks the coupler between a and b as broken; it
	// panics when the ideal topology has no such coupler.
	BreakCoupler(a, b int)
	// HashInto streams the canonical fingerprint encoding — kind tag,
	// dimensions, sorted fault map — into w. Kinds never collide: the
	// stream begins with the kind name.
	HashInto(w io.Writer)
	// Fingerprint digests HashInto to 64 bits.
	Fingerprint() uint64
	// Render draws the unit-cell grid as ASCII art.
	Render() string
}

// CellGrid is the cell-structured refinement every built-in topology
// satisfies: qubits live in a Rows×Cols grid of CellSize-qubit unit
// cells, in-cell indices [0, Half) form the left colon ("vertical"
// qubits) and [Half, CellSize) the right colon ("horizontal" qubits).
// The TRIAD and clustered embedding patterns construct chains through
// this structure; topologies without it embed via embedding.Greedy.
type CellGrid interface {
	Graph
	// QubitAt returns the qubit id at cell (row, col), in-cell index k.
	QubitAt(row, col, k int) int
	// Cell returns the (row, col) of the unit cell containing qubit q.
	Cell(q int) (row, col int)
}

// Factory constructs a fault-free graph of one kind with the given
// unit-cell dimensions.
type Factory func(rows, cols int) Graph

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a topology factory under kind, mirroring the solver
// registry: later registrations of the same kind overwrite earlier ones
// (tests substitute instrumented topologies that way).
func Register(kind string, f Factory) {
	if kind == "" || f == nil {
		panic("topology: Register needs a kind and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	registry[kind] = f
}

// Kinds lists the registered topology kinds in sorted order.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New constructs a fault-free graph of the named kind. Non-positive
// dimensions select the paper-scale 12×12 cell grid. Unknown kinds
// return an error enumerating the registry, like solverreg.New.
func New(kind string, rows, cols int) (Graph, error) {
	if rows <= 0 {
		rows = DefaultRows
	}
	if cols <= 0 {
		cols = DefaultCols
	}
	regMu.RLock()
	f, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("topology: unknown kind %q (registered: %v)", kind, Kinds())
	}
	return f(rows, cols), nil
}

// ChimeraKind is the registry name of the paper's Chimera topology.
const ChimeraKind = chimera.Kind

// Default grid dimensions: the paper's D-Wave 2X is a 12×12 cell grid,
// and the denser kinds default to the same grid so cross-topology
// comparisons hold the cell count fixed.
const (
	DefaultRows = 12
	DefaultCols = 12
)

// BreakRandomQubits breaks n distinct qubits of g at positions drawn
// deterministically from seed — the generic form of the fault model
// chimera.DWave2X uses (and bit-compatible with it: same permutation
// stream, same positions for a given seed and qubit count).
func BreakRandomQubits(g Graph, n int, seed int64) {
	if n <= 0 {
		return
	}
	if n > g.NumQubits() {
		panic("topology: more broken qubits than qubits")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, q := range rng.Perm(g.NumQubits())[:n] {
		g.BreakQubit(q)
	}
}

// DWave2X returns the paper's 12×12 Chimera machine with brokenQubits
// faults drawn from seed — the default topology everywhere a caller
// does not choose one.
func DWave2X(brokenQubits int, seed int64) Graph {
	return chimera.DWave2X(brokenQubits, seed)
}

// Chimera returns a fault-free Chimera graph — the paper's topology —
// with the given unit-cell dimensions.
func Chimera(rows, cols int) Graph { return chimera.NewGraph(rows, cols) }

func init() {
	Register(chimera.Kind, func(rows, cols int) Graph { return chimera.NewGraph(rows, cols) })
}

// Interface conformance of the built-in topologies.
var (
	_ CellGrid = (*chimera.Graph)(nil)
	_ CellGrid = (*Cellular)(nil)
)

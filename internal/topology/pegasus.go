package topology

// PegasusKind is the registry name of the Pegasus-style topology.
const PegasusKind = "pegasus"

// PegasusMaxDegree is Pegasus's coupler bound per qubit: 12 internal +
// 2 external + 1 odd, matching the degree of D-Wave's Advantage-
// generation fabric.
const PegasusMaxDegree = 15

// NewPegasus returns a fault-free Pegasus-style graph of rows×cols unit
// cells. The model keeps Chimera's cell grid and adds the two coupler
// families that give the Pegasus generation its connectivity jump from
// degree 6 to degree 15:
//
//   - Internal couplers: a vertical (left-colon) qubit of cell (r, c)
//     couples to every horizontal (right-colon) qubit of cells
//     (r−1, c), (r, c), and (r+1, c) — each qubit crosses the
//     perpendicular qubits of three cells along its length instead of
//     one, i.e. 12 internal couplers (Chimera's in-cell K4,4 is the
//     middle third).
//   - Odd couplers: parallel qubits pair up within their colon —
//     in-cell indices (0,1), (2,3) on the left, (4,5), (6,7) on the
//     right — adding 1 coupler per qubit.
//   - External couplers are Chimera's: vertical qubits couple to the
//     same in-cell index one cell up/down, horizontal qubits one cell
//     left/right (2 per qubit).
//
// Chimera's coupler set on the same grid is a strict subset, so every
// Chimera embedding stays valid on Pegasus while the extra density
// roughly halves the chain length a complete-graph embedding needs.
func NewPegasus(rows, cols int) *Cellular {
	return newCellular(PegasusKind, "Pegasus", rows, cols, PegasusMaxDegree, pegasusCouples)
}

// pegasusCouples is the ideal-topology predicate of the Pegasus-style
// graph. It is symmetric in (a, b) by construction: every clause
// compares unordered cell/colon relations.
func pegasusCouples(g *Cellular, a, b int) bool {
	ar, ac := g.Cell(a)
	br, bc := g.Cell(b)
	ak, bk := a%CellSize, b%CellSize
	aLeft, bLeft := ak < Half, bk < Half
	dr, dc := ar-br, ac-bc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if aLeft != bLeft {
		// Internal: a vertical qubit crosses the horizontal qubits of
		// its own cell and the cells directly above and below.
		return dc == 0 && dr <= 1
	}
	// Same orientation: odd couplers inside the cell, external couplers
	// between same-index qubits of adjacent cells along the colon's
	// direction.
	if dr == 0 && dc == 0 {
		return ak/2 == bk/2 // odd: pairs (0,1), (2,3), (4,5), (6,7)
	}
	if ak != bk {
		return false
	}
	if aLeft {
		return dc == 0 && dr == 1 // vertical external
	}
	return dr == 0 && dc == 1 // horizontal external
}

func init() {
	Register(PegasusKind, func(rows, cols int) Graph { return NewPegasus(rows, cols) })
}

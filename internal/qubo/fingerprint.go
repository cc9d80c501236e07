package qubo

import (
	"io"

	"repro/internal/hashutil"
)

// Freeze makes the problem immutable: any subsequent AddLinear or
// AddQuadratic panics. Compiled formulas placed in a shared compilation
// cache are frozen so that one request cannot silently corrupt the
// artifact every other request reads; accessors and energy evaluation
// are unaffected. Freezing drops the pair index only the build reads,
// and moves the rows, which AddQuadratic's appends leave with spare
// capacity, into one backing array with len == cap per row. It is
// idempotent and cannot be undone — Clone to obtain a mutable copy.
func (p *Problem) Freeze() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.quad = nil
	flat := make([]Term, 0, 2*numPairs(p.adj))
	for i, row := range p.adj {
		start := len(flat)
		flat = append(flat, row...)
		p.adj[i] = flat[start:len(flat):len(flat)]
	}
}

// Frozen reports whether the problem has been frozen.
func (p *Problem) Frozen() bool { return p.frozen }

// checkFrozen guards the mutating entry points.
func (p *Problem) checkFrozen() {
	if p.frozen {
		panic("qubo: problem is frozen (cached artifacts are immutable; Clone to modify)")
	}
}

// HashInto streams a canonical binary encoding of the formula — variable
// count, linear weights, couplings in sorted order, and the energy
// offset — into w. Structurally identical formulas produce identical
// streams regardless of the AddQuadratic call order that built them.
func (p *Problem) HashInto(w io.Writer) {
	hashutil.WriteInt(w, p.n)
	for _, l := range p.linear {
		hashutil.WriteF64(w, l)
	}
	cs := p.Couplings()
	hashutil.WriteInt(w, len(cs))
	for _, c := range cs {
		hashutil.WriteInt(w, c.I)
		hashutil.WriteInt(w, c.J)
		hashutil.WriteF64(w, c.W)
	}
	hashutil.WriteF64(w, p.Offset)
}

// Fingerprint returns a 64-bit digest of HashInto's canonical encoding.
func (p *Problem) Fingerprint() uint64 { return hashutil.Sum64(p.HashInto) }

// Package joingraph is the workload front-end of the MQO pipeline: it
// models multi-query workloads as join graphs over named relations,
// parses a small deterministic text/JSON workload format, and derives
// real mqo.Problem instances from them — alternative join orders become
// the plans, a textbook cost model prices them, and shared
// subexpressions across queries become the pairwise savings.
//
// Every instance the rest of the repository solves is synthetic
// (internal/mqo.Generate draws random plans and savings); this package
// opens the scenario axis the source paper actually comes from, where
// the MQO structure is induced by queries that share work. The
// derivation is canonical: one workload produces one byte-identical
// mqo.Problem (and hence one Fingerprint) at any parallelism.
package joingraph

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/hashutil"
)

// Structural bounds enforced by validation. They keep derivation — plan
// enumeration is per-query polynomial, sharing detection is quadratic in
// plans per shared subexpression — bounded on adversarial inputs (the
// fuzz target feeds arbitrary workloads through the full chain).
const (
	// MaxRelations bounds the workload's relation catalog.
	MaxRelations = 512
	// MaxQueries bounds the number of queries per workload.
	MaxQueries = 256
	// MaxQueryRelations bounds the relations one query may join.
	MaxQueryRelations = 16
	// MaxRows bounds a relation's cardinality hint. With at most
	// MaxQueryRelations relations per query the largest intermediate is
	// (1e15)^16 = 1e240, comfortably inside float64 range.
	MaxRows = int64(1e15)
)

// Relation is a base relation with a cardinality hint — the only
// statistic the cost model uses.
type Relation struct {
	Name string
	Rows int64
}

// Join is one equi-join edge of a query's join graph. Sel is the join
// selectivity in (0, 1]: |L ⋈ R| = |L|·|R|·Sel. A zero Sel on input
// selects the textbook foreign-key default 1/max(|L|, |R|), resolved at
// validation time so derived costs never depend on when a caller reads
// the field.
type Join struct {
	Left, Right string
	Sel         float64
}

// Query is one query's join graph: the relations it touches are implied
// by its join edges.
type Query struct {
	Name  string
	Joins []Join
}

// Workload is a validated multi-query workload: a relation catalog plus
// queries joining those relations. Construct through New, Parse, or
// Generate; the zero value is not valid.
type Workload struct {
	Relations []Relation
	Queries   []Query

	relIdx map[string]int
}

// New assembles and validates a Workload, resolving defaulted join
// selectivities. It returns an error describing the first violation.
func New(relations []Relation, queries []Query) (*Workload, error) {
	w := &Workload{Relations: relations, Queries: queries}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// validName reports whether s is usable as a relation or query name in
// the text format: non-empty ASCII letters, digits, '_', '.', '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '.' || c == '-':
		default:
			return false
		}
	}
	return true
}

func (w *Workload) validate() error {
	if len(w.Relations) == 0 {
		return fmt.Errorf("joingraph: workload declares no relations")
	}
	if len(w.Relations) > MaxRelations {
		return fmt.Errorf("joingraph: %d relations exceeds the limit of %d", len(w.Relations), MaxRelations)
	}
	w.relIdx = make(map[string]int, len(w.Relations))
	for i, r := range w.Relations {
		if !validName(r.Name) {
			return fmt.Errorf("joingraph: invalid relation name %q", r.Name)
		}
		if _, dup := w.relIdx[r.Name]; dup {
			return fmt.Errorf("joingraph: duplicate relation %q", r.Name)
		}
		if r.Rows < 1 || r.Rows > MaxRows {
			return fmt.Errorf("joingraph: relation %q has %d rows, want 1..%d", r.Name, r.Rows, MaxRows)
		}
		w.relIdx[r.Name] = i
	}
	if len(w.Queries) == 0 {
		return fmt.Errorf("joingraph: workload declares no queries")
	}
	if len(w.Queries) > MaxQueries {
		return fmt.Errorf("joingraph: %d queries exceeds the limit of %d", len(w.Queries), MaxQueries)
	}
	seenQ := make(map[string]bool, len(w.Queries))
	for qi := range w.Queries {
		q := &w.Queries[qi]
		if !validName(q.Name) {
			return fmt.Errorf("joingraph: invalid query name %q", q.Name)
		}
		if seenQ[q.Name] {
			return fmt.Errorf("joingraph: duplicate query %q", q.Name)
		}
		seenQ[q.Name] = true
		if len(q.Joins) == 0 {
			return fmt.Errorf("joingraph: query %q has no joins", q.Name)
		}
		rels := map[int]bool{}
		edges := map[[2]int]bool{}
		for ji := range q.Joins {
			j := &q.Joins[ji]
			li, ok := w.relIdx[j.Left]
			if !ok {
				return fmt.Errorf("joingraph: query %q joins undeclared relation %q", q.Name, j.Left)
			}
			ri, ok := w.relIdx[j.Right]
			if !ok {
				return fmt.Errorf("joingraph: query %q joins undeclared relation %q", q.Name, j.Right)
			}
			if li == ri {
				return fmt.Errorf("joingraph: query %q joins relation %q to itself", q.Name, j.Left)
			}
			key := [2]int{min(li, ri), max(li, ri)}
			if edges[key] {
				return fmt.Errorf("joingraph: query %q repeats the join %s-%s", q.Name, w.Relations[key[0]].Name, w.Relations[key[1]].Name)
			}
			edges[key] = true
			rels[li], rels[ri] = true, true
			if j.Sel == 0 {
				// Foreign-key default: the smaller side survives.
				j.Sel = 1 / float64(max(w.Relations[li].Rows, w.Relations[ri].Rows))
			}
			if !(j.Sel > 0 && j.Sel <= 1) || math.IsNaN(j.Sel) {
				return fmt.Errorf("joingraph: query %q join %s-%s has selectivity %v, want (0, 1]", q.Name, j.Left, j.Right, j.Sel)
			}
		}
		if len(rels) > MaxQueryRelations {
			return fmt.Errorf("joingraph: query %q joins %d relations, limit is %d", q.Name, len(rels), MaxQueryRelations)
		}
	}
	return nil
}

// NumRelations returns the size of the relation catalog.
func (w *Workload) NumRelations() int { return len(w.Relations) }

// NumQueries returns the number of queries.
func (w *Workload) NumQueries() int { return len(w.Queries) }

// queryRelations returns the sorted catalog indices of the relations
// query q touches.
func (w *Workload) queryRelations(q int) []int {
	set := map[int]bool{}
	for _, j := range w.Queries[q].Joins {
		set[w.relIdx[j.Left]] = true
		set[w.relIdx[j.Right]] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// queryEdges returns query q's join edges as (min, max) catalog-index
// pairs with selectivities, sorted — the canonical edge list behind both
// derivation and hashing.
func (w *Workload) queryEdges(q int) []edge {
	out := make([]edge, 0, len(w.Queries[q].Joins))
	for _, j := range w.Queries[q].Joins {
		a, b := w.relIdx[j.Left], w.relIdx[j.Right]
		if a > b {
			a, b = b, a
		}
		out = append(out, edge{a: a, b: b, sel: j.Sel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// edge is a canonicalized join edge: a < b are catalog indices.
type edge struct {
	a, b int
	sel  float64
}

// HashInto streams a canonical binary encoding of the workload —
// relation catalog, query join graphs, selectivities — into wr. Two
// workloads with identical structure produce identical streams.
func (w *Workload) HashInto(wr io.Writer) {
	hashutil.WriteInt(wr, len(w.Relations))
	for _, r := range w.Relations {
		hashutil.WriteString(wr, r.Name)
		hashutil.WriteInt(wr, int(r.Rows))
	}
	hashutil.WriteInt(wr, len(w.Queries))
	for qi := range w.Queries {
		hashutil.WriteString(wr, w.Queries[qi].Name)
		edges := w.queryEdges(qi)
		hashutil.WriteInt(wr, len(edges))
		for _, e := range edges {
			hashutil.WriteInt(wr, e.a)
			hashutil.WriteInt(wr, e.b)
			hashutil.WriteF64(wr, e.sel)
		}
	}
}

// Fingerprint returns a 64-bit digest of HashInto's canonical encoding:
// the workload's shape identity. Equal fingerprints imply (up to hash
// collision) byte-identical derived problems.
func (w *Workload) Fingerprint() uint64 { return hashutil.Sum64(w.HashInto) }

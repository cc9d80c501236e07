package qubo

import (
	"bytes"
	"slices"
	"testing"
)

func TestFingerprintOrderIndependent(t *testing.T) {
	a := New(3)
	a.AddLinear(0, 1.5)
	a.AddQuadratic(0, 1, 2)
	a.AddQuadratic(1, 2, -1)

	b := New(3)
	b.AddQuadratic(2, 1, -1) // reversed argument and call order
	b.AddQuadratic(1, 0, 2)
	b.AddLinear(0, 1.5)

	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("construction order changed the fingerprint")
	}
	b.AddLinear(2, 0.25)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("weight change did not change the fingerprint")
	}
}

func TestFreeze(t *testing.T) {
	p := New(2)
	p.AddQuadratic(0, 1, 3)
	p.Freeze()
	if !p.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen problem did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AddLinear", func() { p.AddLinear(0, 1) })
	mustPanic("AddQuadratic", func() { p.AddQuadratic(0, 1, 1) })

	// Reads and evaluation still work, and clones are mutable again.
	if p.Quadratic(0, 1) != 3 {
		t.Fatal("frozen read broken")
	}
	if got := p.Energy([]bool{true, true}); got != 3 {
		t.Fatalf("frozen Energy = %v, want 3", got)
	}
	c := p.Clone()
	if c.Frozen() {
		t.Fatal("clone inherited frozen state")
	}
	c.AddLinear(0, 1) // must not panic
}

// TestFreezeClipsRows: a frozen problem's rows hold no spare capacity
// (AddQuadratic's appends leave some in every row they grow), and
// clipping them changes no coupling, no HashInto byte and no
// fingerprint.
func TestFreezeClipsRows(t *testing.T) {
	p := New(40)
	for i := 0; i < 40; i++ {
		p.AddLinear(i, float64(i)/3)
		for j := i + 1; j < 40; j += 1 + i%4 {
			p.AddQuadratic(i, j, float64(i-j)/7)
		}
	}
	p.AddQuadratic(3, 5, 1) // a repeated pair updates in place
	var before bytes.Buffer
	p.HashInto(&before)
	fp := p.Fingerprint()
	rows := make([][]Term, p.N())
	spare := 0
	for i := range rows {
		rows[i] = append([]Term(nil), p.Neighbors(i)...)
		spare += cap(p.Neighbors(i)) - len(p.Neighbors(i))
	}
	if spare == 0 {
		t.Fatal("the built rows hold no spare capacity; the test cannot see a clip")
	}
	p.Freeze()
	for i, want := range rows {
		row := p.Neighbors(i)
		if cap(row) != len(row) {
			t.Fatalf("frozen row %d has len %d but cap %d", i, len(row), cap(row))
		}
		if !slices.Equal(row, want) {
			t.Fatalf("frozen row %d = %v, want %v", i, row, want)
		}
	}
	var after bytes.Buffer
	p.HashInto(&after)
	if !bytes.Equal(before.Bytes(), after.Bytes()) || p.Fingerprint() != fp {
		t.Fatal("freezing changed the HashInto bytes or the fingerprint")
	}
}

package topology

import "testing"

// TestFingerprintsDistinguishKinds is the cache-safety property behind
// the compile key: graphs of different kinds — even with identical
// dimensions and fault maps — never share a fingerprint, so a Pegasus
// solve can never hit a Chimera cache entry.
func TestFingerprintsDistinguishKinds(t *testing.T) {
	seen := map[uint64]string{}
	for kind, g := range builtins(t, 12, 12) {
		fp := g.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("kinds %q and %q share fingerprint %x", prev, kind, fp)
		}
		seen[fp] = kind
	}
}

func TestFingerprintValueIdentity(t *testing.T) {
	for _, kind := range Kinds() {
		faulty := func() Graph {
			g, _ := New(kind, 6, 6)
			BreakRandomQubits(g, 11, 5)
			return g
		}
		a, b := faulty(), faulty()
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: independently constructed identical graphs differ", kind)
		}
		c, _ := New(kind, 6, 6)
		if c.Fingerprint() == a.Fingerprint() {
			t.Fatalf("%s: fault map did not change the fingerprint", kind)
		}
		d, _ := New(kind, 6, 7)
		if d.Fingerprint() == c.Fingerprint() {
			t.Fatalf("%s: dimensions did not change the fingerprint", kind)
		}
	}
}

func TestFingerprintSeesBrokenCouplers(t *testing.T) {
	a := NewZephyr(4, 4)
	b := NewZephyr(4, 4)
	n := a.Neighbors(0)
	if len(n) == 0 {
		t.Fatal("qubit 0 has no neighbors")
	}
	b.BreakCoupler(n[0], 0) // order-insensitive: stored canonically
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("broken coupler did not change the fingerprint")
	}
	c := NewZephyr(4, 4)
	c.BreakCoupler(0, n[0])
	if b.Fingerprint() != c.Fingerprint() {
		t.Fatal("coupler orientation changed the fingerprint")
	}
}

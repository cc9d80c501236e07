package main

import (
	"bytes"
	"testing"
)

// TestInputsDeterministic pins the seeding contract: one seed yields a
// byte-identical request stream (with its reference optima) every time,
// and another seed yields a different one.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			gen := func(seed int64) []byte {
				in, err := generate(w, seed, 30)
				if err != nil {
					t.Fatal(err)
				}
				return encodeInputs(in)
			}
			a, b, c := gen(7), gen(7), gen(8)
			if len(a) == 0 {
				t.Fatal("empty stream")
			}
			if !bytes.Equal(a, b) {
				t.Error("seed 7 generated two different streams")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 7 and 8 generated the same stream")
			}
		})
	}
}

// TestCounterLenient checks that a /stats counter a build does not have
// reads as absent rather than as an error or a zero.
func TestCounterLenient(t *testing.T) {
	doc := map[string]any{"cache": map[string]any{"hits": 3.0}}
	if v, ok := counter(doc, "cache.hits"); !ok || v != 3 {
		t.Errorf("cache.hits = %v, %v", v, ok)
	}
	for _, path := range []string{"cache.evictions", "coalesced", "cache.hits.x"} {
		if _, ok := counter(doc, path); ok {
			t.Errorf("%s read as present", path)
		}
	}
}

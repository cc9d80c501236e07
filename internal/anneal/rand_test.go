package anneal

import (
	"math/rand"
	"testing"
)

// randSeeds covers math/rand's seed reduction: 0 and 2³¹−1 both map to
// 89482311, negative seeds wrap, and seeds beyond 31 bits reduce mod
// 2³¹−1.
var randSeeds = []int64{0, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 62, -1 << 62, 7, 1<<63 - 1}

// TestRandMatchesMathRand: for every seed, Rand returns exactly what
// rand.New(rand.NewSource(seed)) returns over more than ten refills of
// interleaved Float64, Intn(2) and Int63 draws.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds {
		ref := rand.New(rand.NewSource(seed))
		r := NewRand(seed)
		// The draw kinds follow a pattern with period 7, so every kind
		// lands on every buffer index across the refills.
		for i := 0; i < 12*rngLen; i++ {
			switch i % 7 {
			case 0, 3:
				if got, want := r.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
				}
			case 1, 4, 6:
				if got, want := r.Bit(), ref.Intn(2); got != want {
					t.Fatalf("seed %d draw %d: Bit = %d, Intn(2) = %d", seed, i, got, want)
				}
			default:
				if got, want := r.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
				}
			}
		}
	}
}

// TestRandReseedEqualsFresh: Seed on a generator part-way through a
// stream restarts it exactly as a fresh one, without allocating.
func TestRandReseedEqualsFresh(t *testing.T) {
	used := NewRand(3)
	for i := 0; i < rngLen+100; i++ {
		used.Int63()
	}
	for _, seed := range randSeeds {
		used.Seed(seed)
		fresh := NewRand(seed)
		if *used != *fresh {
			t.Fatalf("seed %d: re-seeded state differs from a fresh generator", seed)
		}
		for i := 0; i < 2*rngLen; i++ {
			if a, b := used.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: re-seeded %d, fresh %d", seed, i, a, b)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { used.Seed(42) }); a != 0 {
		t.Errorf("Seed allocates %v times, want 0", a)
	}
}

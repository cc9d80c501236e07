package anneal

import "math/rand"

// Rand is a concrete generator that yields exactly the stream of
// rand.New(rand.NewSource(seed)) for the draws the sampling path makes:
// Int63, Float64 and Intn(2) (as Bit). Every golden fixture pins spins
// drawn from that stream, so the generator may change how a draw is
// computed but never which value it returns.
//
// math/rand's source is an additive lagged-Fibonacci generator,
// Y[t] = Y[t−607] + Y[t−273] mod 2⁶⁴, reached through an interface call
// per draw with its state behind a pointer. Rand instead holds the next
// 607 outputs in a forward buffer: a draw is one load and an index
// increment, and every 607 draws refill computes the following 607
// outputs in place. The sweep (kernel.go) goes one step further and
// keeps the buffer index in a register for a whole sweep.
//
// A Rand is ~4.9 KB and owned by one goroutine at a time. Seed
// re-initializes it in place without allocating, so a per-worker
// arena can carry one across every batch it samples. The zero value
// must be seeded before use.
type Rand struct {
	pos uint // next unread index in buf; rngLen forces a refill
	buf [rngLen]uint64
}

const (
	rngLen  = 607 // register length (the long lag)
	rngTap  = 273 // short lag
	rngMask = 1<<63 - 1
	// redrawAt is the smallest 63-bit draw r for which float64(r)/2⁶³
	// rounds up to 1.0; Float64 redraws those.
	redrawAt = 1<<63 - 512
	int32max = 1<<31 - 1
)

// cooked is math/rand's seed-independent register table, stored in
// buffer order (see Seed). math/rand does not export it; init recovers
// it from the stream of one seed.
var cooked [rngLen]uint64

func init() {
	// math/rand seeds its register V with lcg(seed) ⊕ rngCooked and then
	// emits Y[0], Y[1], … by the recurrence, V playing Y[−607..−1].
	// Draw Y[0..606] for one seed, run the recurrence backward to V, and
	// XOR out that seed's LCG part.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var y [rngLen]uint64
	for k := range y {
		y[k] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		if k >= rngTap {
			cooked[k] = y[k] - y[k-rngTap]
		} else {
			cooked[k] = y[k] - cooked[k+rngLen-rngTap]
		}
	}
	var lcg [rngLen]uint64
	lcgRegister(seed, &lcg)
	for k := range cooked {
		cooked[k] ^= lcg[k]
	}
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator in place to the stream of
// rand.NewSource(seed), allocating nothing.
func (r *Rand) Seed(seed int64) {
	lcgRegister(seed, &r.buf)
	for k := range r.buf {
		r.buf[k] ^= cooked[k]
	}
	// buf now holds Y[−607..−1]; one refill yields the first 607 draws.
	r.refill()
}

// lcgRegister writes the seed-dependent half of math/rand's initial
// register (rngSource.Seed: 20 warm-up steps of the Park–Miller LCG,
// then three LCG outputs folded into each word) into v, in buffer order.
// math/rand's register index i holds Y[−607+k] for
// k = (333 − i) mod 607, which is where word i lands.
func lcgRegister(seed int64, v *[rngLen]uint64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			k := rngLen - rngTap - 1 - i
			if k < 0 {
				k += rngLen
			}
			v[k] = uint64(u)
		}
	}
}

// seedrand is math/rand's seeding LCG: x ← 48271·x mod (2³¹ − 1),
// by Schrage's method.
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// refill replaces the buffered outputs Y[t..t+606] with Y[t+607..t+1213]
// and rewinds the read index: Y[t+607+k] = Y[t+k] + Y[t+334+k], where
// the second term is still in the old buffer for k < 273 and already in
// the new one after.
func (r *Rand) refill() {
	b := &r.buf
	for k := 0; k < rngTap; k++ {
		b[k] += b[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		b[k] += b[k-rngTap]
	}
	r.pos = 0
}

// next returns the next raw 64-bit output (math/rand's Uint64).
func (r *Rand) next() uint64 {
	if r.pos >= rngLen {
		r.refill()
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// Int63 returns what rand.Rand.Int63 returns at the same stream position.
func (r *Rand) Int63() int64 { return int64(r.next() & rngMask) }

// uniform63 returns the 63-bit draw behind rand.Rand.Float64: the next
// Int63 below redrawAt, redrawing exactly as Float64 does when the
// quotient would round to 1.0.
func (r *Rand) uniform63() uint64 {
	for {
		if v := r.next() & rngMask; v < redrawAt {
			return v
		}
	}
}

// Float64 returns what rand.Rand.Float64 returns at the same stream
// position.
func (r *Rand) Float64() float64 { return float64(r.uniform63()) / (1 << 63) }

// Bit returns what rand.Rand.Intn(2) returns at the same stream position:
// bit 0 of Int31, i.e. bit 32 of the raw output.
func (r *Rand) Bit() int { return int(r.next()>>32) & 1 }

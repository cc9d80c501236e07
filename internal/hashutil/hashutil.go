// Package hashutil is the single home of the canonical binary encoding
// conventions every HashInto implementation in the tree shares. The
// fingerprintable types (mqo.Problem, qubo.Problem, the hardware
// topologies, embedding.Embedding) each stream their structure through
// these helpers, so every fingerprint contribution to a plancache key is
// byte-order stable by construction and the encoding cannot drift apart
// between packages.
package hashutil

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
)

// Uint64Writer is a sink that encodes a uint64 itself, in WriteU64's
// byte order, from a buffer it owns. An 8-byte buffer handed to an
// io.Writer escapes to the heap, so WriteU64 gives such sinks the value
// instead and allocates nothing. plancache.Keyer and Sum64's sink
// implement it.
type Uint64Writer interface {
	Uint64(v uint64)
}

// WriteU64 streams v to w in a fixed (little-endian) byte order — the
// same encoding plancache.Keyer.Uint64 uses. Writes to hash sinks never
// fail; other writers' errors are ignored by design.
func WriteU64(w io.Writer, v uint64) {
	if u, ok := w.(Uint64Writer); ok {
		u.Uint64(v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// WriteInt streams an int through WriteU64's fixed encoding.
func WriteInt(w io.Writer, v int) { WriteU64(w, uint64(int64(v))) }

// WriteF64 streams the IEEE-754 bits of v through WriteU64's fixed
// encoding, so -0, NaN payloads, and denormals all hash distinctly and
// deterministically.
func WriteF64(w io.Writer, v float64) { WriteU64(w, math.Float64bits(v)) }

// WriteString streams a length-prefixed s, making concatenated string
// fields unambiguous (no separator collisions).
func WriteString(w io.Writer, s string) {
	WriteU64(w, uint64(len(s)))
	io.WriteString(w, s)
}

// Sum64 runs hashInto over an FNV-1a sink and returns the 64-bit digest
// — the shared body of every Fingerprint() method.
func Sum64(hashInto func(io.Writer)) uint64 {
	s := &sum64Sink{h: fnv.New64a()}
	hashInto(s)
	return s.h.Sum64()
}

// sum64Sink is Sum64's FNV-1a hash with its own Uint64Writer buffer.
type sum64Sink struct {
	h   hash.Hash64
	buf [8]byte
}

func (s *sum64Sink) Write(p []byte) (int, error) { return s.h.Write(p) }

func (s *sum64Sink) Uint64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:])
}

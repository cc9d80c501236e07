// Package plancache is a sharded, lock-striped LRU cache with
// single-flight deduplication, keyed by a canonical 128-bit hash of the
// cached artifact's inputs. It exists to amortize problem compilation —
// building the QUBO from the MQO instance and minor-embedding logical
// variables into the Chimera topology — across Solve requests: the
// anneal itself is microseconds of modeled time, while compilation is
// the wall-clock hot path of a service handling many concurrent requests
// for a bounded population of problem shapes.
//
// Design points:
//
//   - Keys are 128-bit canonical hashes (see Keyer), so two requests
//     carrying structurally identical inputs — same query costs, savings
//     graph, topology, embedding pattern, decomposition window — map to
//     the same compiled artifact no matter which goroutine built it.
//   - The key space is striped over independently locked shards; lookups
//     for different shapes never contend on one mutex.
//   - Each shard runs LRU eviction against its own capacity slice, so
//     the cache's total footprint is bounded under adversarial shape
//     churn.
//   - Do is single-flight: when N goroutines ask for the same absent key
//     concurrently, exactly one runs the compile function and the other
//     N-1 block until it finishes and share the result. Errors are
//     delivered to every waiter of that flight but never cached, so a
//     transient failure does not poison the key.
//
// Cached values are shared by every requester and MUST be treated as
// immutable; compile functions should freeze artifacts that offer a
// freeze guard (see qubo.Problem.Freeze).
package plancache

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Key is a 128-bit canonical hash identifying one cached artifact. Keys
// are compared for equality only; derive them with NewKeyer so that the
// encoding of every input is canonical.
type Key [2]uint64

// Keyer accumulates canonical input bytes into a Key. The zero value is
// not usable; construct with NewKeyer.
type Keyer struct {
	h   hash.Hash
	buf [8]byte // Uint64's encoding buffer, kept off the heap per call
}

// NewKeyer returns an empty Keyer (FNV-1a 128).
func NewKeyer() *Keyer { return &Keyer{h: fnv.New128a()} }

// Write implements io.Writer so fingerprinting helpers can stream their
// canonical encodings in. It never fails.
func (k *Keyer) Write(p []byte) (int, error) { return k.h.Write(p) }

// Uint64 appends one 64-bit value in a fixed (little-endian) byte
// order. It makes Keyer a hashutil.Uint64Writer, so the fingerprint
// helpers stream integers into it without allocating.
func (k *Keyer) Uint64(v uint64) {
	binary.LittleEndian.PutUint64(k.buf[:], v)
	k.h.Write(k.buf[:])
}

// Int appends an int (as its 64-bit two's complement).
func (k *Keyer) Int(v int) { k.Uint64(uint64(int64(v))) }

// Key finalizes the accumulated bytes into a Key. The Keyer remains
// usable; further writes extend the same stream.
func (k *Keyer) Key() Key {
	var sum [16]byte
	k.h.Sum(sum[:0])
	return Key{binary.LittleEndian.Uint64(sum[:8]), binary.LittleEndian.Uint64(sum[8:])}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups satisfied by a cached entry.
	Hits uint64
	// Misses counts lookups that ran the compile function (one per
	// single-flight group).
	Misses uint64
	// Shared counts lookups that joined an in-flight compile started by
	// another goroutine instead of running their own — the requests
	// single-flight deduplication saved.
	Shared uint64
	// Evictions counts entries dropped by LRU capacity pressure.
	Evictions uint64
	// Entries is the number of values currently cached.
	Entries uint64
}

// entry is one cached value on a shard's LRU list (head = most recent).
type entry[V any] struct {
	key        Key
	val        V
	prev, next *entry[V]
}

// flight is one in-progress compile; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// shard is one lock stripe: its own map, LRU list, in-flight table,
// and capacity slice.
type shard[V any] struct {
	mu         sync.Mutex
	cap        int
	entries    map[Key]*entry[V]
	head, tail *entry[V]
	inflight   map[Key]*flight[V]
}

// Cache is a sharded single-flight LRU. Construct with New or
// NewSharded; the zero value is not usable.
type Cache[V any] struct {
	shards []shard[V]

	hits, misses, shared, evictions atomic.Uint64
}

// defaultShards is the lock-stripe count of New: enough stripes that a
// machine's worth of goroutines rarely collide, cheap enough that tiny
// caches stay tiny.
const defaultShards = 16

// New returns a cache holding at most capacity values (non-positive
// selects 128), striped over 16 shards.
func New[V any](capacity int) *Cache[V] { return NewSharded[V](capacity, defaultShards) }

// NewSharded returns a cache with an explicit shard count (non-positive
// selects 1). Capacity is divided across shards with the remainder
// spread one-per-shard, so the shard caps sum to exactly capacity —
// the cache never holds more values than asked for. Each shard evicts
// against its own slice, so a pathological key distribution can evict
// earlier than a global LRU would; use a single shard when exact
// whole-cache LRU semantics matter more than lock striping.
func NewSharded[V any](capacity, shards int) *Cache[V] {
	if capacity <= 0 {
		capacity = 128
	}
	if shards <= 0 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache[V]{shards: make([]shard[V], shards)}
	for i := range c.shards {
		c.shards[i].cap = capacity / shards
		if i < capacity%shards {
			c.shards[i].cap++
		}
		c.shards[i].entries = make(map[Key]*entry[V])
		c.shards[i].inflight = make(map[Key]*flight[V])
	}
	return c
}

// shardOf picks the lock stripe for a key. The key is already a hash, so
// its low bits are uniform.
func (c *Cache[V]) shardOf(key Key) *shard[V] {
	return &c.shards[key[0]%uint64(len(c.shards))]
}

// Get returns the cached value for key without compiling on a miss.
func (c *Cache[V]) Get(key Key) (V, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.moveToFront(e)
		c.hits.Add(1)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for key, compiling it with compile on a miss.
// Concurrent calls for the same absent key are single-flighted: exactly
// one runs compile, the rest block and share its outcome. A compile
// error is returned to every waiter of that flight and nothing is
// cached, so the next Do retries. ctx bounds only this caller's wait: a
// cancelled waiter returns ctx.Err() while the compile keeps running for
// the others. The leader itself is not interruptible — compiles are
// bounded CPU work, and abandoning a half-built artifact would strand
// every waiter. The bool reports whether the value came from cache or a
// shared flight rather than this caller's own compile.
func (c *Cache[V]) Do(ctx context.Context, key Key, compile func() (V, error)) (V, bool, error) {
	var zero V
	s := c.shardOf(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.moveToFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.val, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.shared.Add(1)
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = compile()

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		s.insert(key, f.val, c)
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insert adds a fresh entry at the LRU front, evicting the tail past
// capacity. Caller holds s.mu.
func (s *shard[V]) insert(key Key, val V, c *Cache[V]) {
	e := &entry[V]{key: key, val: val}
	s.entries[key] = e
	s.pushFront(e)
	for len(s.entries) > s.cap {
		t := s.tail
		s.unlink(t)
		delete(s.entries, t.key)
		c.evictions.Add(1)
	}
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// Len returns the number of cached values across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats snapshots the counters. Hits+Shared+Misses equals the number of
// Do/Get lookups that did not abort on a cancelled wait.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Entries:   uint64(c.Len()),
	}
}

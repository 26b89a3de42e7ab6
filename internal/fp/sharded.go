package fp

import "sync"

// shardBits is the log2 shard count of a ShardedSet probed by more
// than one worker. 256 shards keep the probability of two of even 32
// workers colliding on one shard lock below 2% per probe pair, while
// the per-shard maps stay large enough to amortise map overhead.
// Shards are selected by the high bits of the 64-bit fingerprint, so
// the selection reuses the hash the probe needs anyway and every shard
// receives a uniform slice of the key space.
const shardBits = 8

// ShardedSet is the concurrent visited set of the search engines: a
// plain key set that many workers probe and update at once. The key
// space is partitioned into shards by the high bits of the key's 64-bit
// fingerprint, each shard guarded by its own mutex, so concurrent
// probes contend only when their states land in the same shard.
//
// Unlike Set it has no budget dimension: the engines fold every budget
// coordinate into the key (the order-independent dedup discipline; see
// DESIGN.md), so first visit wins and every revisit is pruned. Because
// the outcome of Visit depends only on the key — never on which worker
// asks — the set of "explore" answers is the same over any concurrent
// schedule.
type ShardedSet struct {
	exact  bool
	shift  uint // fingerprint bits below the shard index
	shards []shard
}

// shard is one lock-striped slice of the set. The maps mirror Set's
// fingerprint/exact modes.
type shard struct {
	mu       sync.Mutex
	fp       map[uint64]struct{}
	exact    map[string]struct{}
	keyBytes int64 // exact mode: retained key bytes of this shard
}

// NewShardedSet returns an empty concurrent visited set for a pool of
// the given width; exact selects full-key retention over the default
// 64-bit fingerprint mode (same trade-off as NewSet). A one-worker set
// has a single shard: nothing contends, and a short search does not pay
// for 256 maps it never fills.
func NewShardedSet(exact bool, workers int) *ShardedSet {
	bits := uint(shardBits)
	if workers <= 1 {
		bits = 0
	}
	s := &ShardedSet{exact: exact, shift: 64 - bits, shards: make([]shard, 1<<bits)}
	for i := range s.shards {
		if exact {
			s.shards[i].exact = make(map[string]struct{})
		} else {
			s.shards[i].fp = make(map[uint64]struct{})
		}
	}
	return s
}

// Exact reports whether the set retains full keys.
func (s *ShardedSet) Exact() bool { return s.exact }

// Visit records that the state serialised as key has been reached and
// reports whether it is new (and must be explored). Safe for concurrent
// use; key may reuse a caller-owned buffer (it is copied only on a new
// exact-mode insert). The probe path is allocation-free in both modes.
func (s *ShardedSet) Visit(key []byte) bool {
	return s.VisitHash(Hash64(key), key)
}

// VisitHash is Visit for callers that already computed Hash64(key) —
// the engines hash once and reuse the fingerprint for both shard
// selection and violation tie-breaking.
func (s *ShardedSet) VisitHash(h uint64, key []byte) bool {
	// A shift of 64 (one shard) yields index 0.
	sh := &s.shards[h>>s.shift]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.exact {
		if _, ok := sh.exact[string(key)]; ok {
			return false
		}
		sh.keyBytes += int64(len(key))
		sh.exact[string(key)] = struct{}{}
		return true
	}
	if _, ok := sh.fp[h]; ok {
		return false
	}
	sh.fp[h] = struct{}{}
	return true
}

// Has reports whether the state serialised as key, whose fingerprint
// is h, has been visited, without recording it. Safe for concurrent
// use and allocation-free; in exact mode the full key decides.
func (s *ShardedSet) Has(h uint64, key []byte) bool {
	sh := &s.shards[h>>s.shift]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.exact {
		_, ok := sh.exact[string(key)]
		return ok
	}
	_, ok := sh.fp[h]
	return ok
}

// Len returns the number of distinct states recorded, summed across
// shards. It locks each shard in turn, so concurrent Visits may land
// between shard reads; engines call it on their flush cadence, where a
// momentarily stale occupancy is fine.
func (s *ShardedSet) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.fp) + len(sh.exact)
		sh.mu.Unlock()
	}
	return n
}

// ApproxBytes estimates the heap footprint across all shards, using
// the same per-entry constants as Set.ApproxBytes. Like Len it is a
// flush-cadence figure, not a linearizable one, but it is monotone
// over any quiescent sequence of snapshots: entries are only ever
// added.
func (s *ShardedSet) ApproxBytes() int64 {
	var b int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b += sh.keyBytes + int64(len(sh.exact))*exactEntryBytes + int64(len(sh.fp))*fpEntryBytes
		sh.mu.Unlock()
	}
	return b
}

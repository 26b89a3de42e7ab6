// Package fp provides 64-bit state fingerprinting and budget-aware
// visited sets for the explicit-state search engines (internal/sc,
// internal/ra, internal/smc).
//
// The engines' hot loop is "serialise the configuration, look it up in
// the visited map, maybe insert it". Retaining the full serialised key
// per state costs tens to hundreds of bytes each and an allocation per
// insertion; at the state counts of the paper's Table 1-8 sweeps the
// visited map dominates both the heap and the allocator. A Set in its
// default fingerprint mode stores only a 64-bit FNV-1a hash of the key
// bytes per state: lookups and re-probes are allocation-free and the
// per-state footprint shrinks to the map entry itself.
//
// The price is a collision risk: two distinct states hashing to the
// same 64 bits are conflated, which can prune reachable states and (in
// the worst case) mask a violation. By the birthday bound the
// probability of any collision among N states is about N^2 / 2^65 —
// roughly 5e-9 at a million states and 5e-5 at a hundred thousand
// million-state runs; see DESIGN.md for the argument. Exact mode
// (NewSet(true)) retains the full key bytes and is used by the
// correctness oracles, the parity tests, and collision-paranoid runs
// via the engines' Options.ExactDedup.
package fp

// FNV-1a 64-bit parameters (FNV-0 offset basis and prime).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of b. It is equivalent to
// hash/fnv's New64a but inlineable and allocation-free.
func Hash64(b []byte) uint64 {
	return Extend(offset64, b)
}

// Extend continues the FNV-1a hash h over b: Extend(Hash64(a), b) ==
// Hash64(a‖b). It lets a caller probe several keys that share a prefix
// for one hash of the prefix plus a step per appended byte.
func Extend(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Set is a visited set for budget-bounded searches: it maps a state key
// to the minimum "budget used" (context switches, view switches, path
// depth, ...) at which the state has been reached. A state reached
// again having used at least as much budget has a subset of the futures
// of the recorded visit and is pruned; reached with strictly less
// budget used, it must be re-explored.
//
// In fingerprint mode (the default) only the 64-bit hash of the key is
// retained; in exact mode the full key bytes are. Searches without a
// budget dimension pass a constant budget.
type Set struct {
	exact    map[string]int
	fp       map[uint64]int
	keyBytes int64 // exact mode: total bytes of retained keys
}

// NewSet returns an empty visited set. exact selects exact mode (full
// key retention) over the default 64-bit fingerprint mode.
func NewSet(exact bool) *Set {
	if exact {
		return &Set{exact: make(map[string]int)}
	}
	return &Set{fp: make(map[uint64]int)}
}

// Exact reports whether the set retains full keys.
func (s *Set) Exact() bool { return s.exact != nil }

// Visit records that the state serialised as key has been reached with
// the given budget used, and reports whether it must be explored: true
// when the state is new or was previously only reached with more budget
// used (the recorded minimum is updated), false when this visit is
// subsumed by an earlier one. key is not retained in fingerprint mode
// and copied (via the map's string conversion) in exact mode, so
// callers may reuse the backing buffer.
func (s *Set) Visit(key []byte, budget int) bool {
	if s.exact != nil {
		// The map index with an inline []byte->string conversion does
		// not allocate; only the insert of a genuinely new state does.
		prev, ok := s.exact[string(key)]
		if ok && prev <= budget {
			return false
		}
		if !ok {
			s.keyBytes += int64(len(key))
		}
		s.exact[string(key)] = budget
		return true
	}
	h := Hash64(key)
	if prev, ok := s.fp[h]; ok && prev <= budget {
		return false
	}
	s.fp[h] = budget
	return true
}

// VisitHash is Visit for callers that already computed Hash64(key): the
// engines hash each state key once and reuse the fingerprint for both
// the probe and violation tie-breaking (MixOrdinal). In exact mode the
// hash is ignored and the full key decides.
func (s *Set) VisitHash(h uint64, key []byte, budget int) bool {
	if s.exact != nil {
		return s.Visit(key, budget)
	}
	if prev, ok := s.fp[h]; ok && prev <= budget {
		return false
	}
	s.fp[h] = budget
	return true
}

// MixOrdinal derives the fingerprint of the ord-th transition scanned
// out of a state whose key fingerprint is h. The engines' census mode
// keeps the violation with the smallest mixed fingerprint as its
// witness — a tie-break any worker can apply locally, making the chosen
// witness independent of discovery order (see DESIGN.md). One FNV step
// disperses both the ordinal and the state bits.
func MixOrdinal(h uint64, ord int) uint64 {
	return (h ^ uint64(ord+1)) * prime64
}

// Len returns the number of distinct states recorded.
func (s *Set) Len() int {
	if s.exact != nil {
		return len(s.exact)
	}
	return len(s.fp)
}

// Per-entry map overheads for ApproxBytes: a fingerprint entry is a
// uint64 key plus an int value; an exact entry additionally carries a
// string header and bucket bookkeeping on top of its key bytes.
const (
	fpEntryBytes    = 16
	exactEntryBytes = 48
)

// ApproxBytes estimates the heap footprint of the visited set: retained
// key bytes plus a constant per map entry. It is an O(1) occupancy
// figure for live telemetry (internal/obs SearchStats), not an exact
// accounting — Go map buckets over-allocate by up to ~2x.
func (s *Set) ApproxBytes() int64 {
	if s.exact != nil {
		return s.keyBytes + int64(len(s.exact))*exactEntryBytes
	}
	return int64(len(s.fp)) * fpEntryBytes
}

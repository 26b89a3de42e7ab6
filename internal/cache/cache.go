// Package cache is the content-addressed verification-result cache
// behind the vbmcd daemon (internal/serve), the warm-sweep mode of the
// tables harness (internal/tables) and the -remote thin client: ask
// once, memoize the verdict.
//
// A result is addressed by the SHA-256 of (canonicalized program, mode,
// bounds, toolchain version) — see key.go — so semantically identical
// sources with different whitespace, labels or names hit the same
// entry, while any change to the engine build (internal/version)
// invalidates everything at once.
//
// Three layers answer a query:
//
//   - an in-memory, byte-budgeted LRU of entries;
//   - monotone-bound subsumption for the K-bounded modes: a cached
//     SAFE at K'≥k answers a query at k (fewer view switches can only
//     remove behaviours), and a cached validated-UNSAFE at K'≤k
//     answers a query at k (the witness still uses at most k
//     switches). The directions are deliberately asymmetric and are
//     property-tested against direct engine runs;
//   - a singleflight layer that collapses concurrent identical
//     requests into one exploration.
//
// An optional JSONL disk store (disk.go) persists entries across
// restarts; corrupt or stale lines load as misses, never as wrong
// verdicts.
//
// Only trustworthy conclusions are stored: SAFE (the engine exhausted
// the bounded space) and UNSAFE with a validated witness. Inconclusive
// results — timeouts, state caps, cancelled runs — are returned to the
// caller but never memoized: they depend on the run's resources, not
// on the query.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/version"
)

// Verdict strings of an Outcome; the engine verdicts plus the
// portfolio's disagreement marker.
const (
	VerdictSafe         = "SAFE"
	VerdictUnsafe       = "UNSAFE"
	VerdictInconclusive = "INCONCLUSIVE"
	VerdictDisagree     = "DISAGREE"
)

// Outcome is one verification result, the unit the cache stores.
type Outcome struct {
	// Verdict is SAFE, UNSAFE, INCONCLUSIVE or DISAGREE.
	Verdict string `json:"verdict"`
	// States and Transitions are search statistics (whichever the
	// engine reports).
	States      int   `json:"states,omitempty"`
	Transitions int64 `json:"transitions,omitempty"`
	// TranslatedStmts and ContextBound carry the vbmc pipeline's
	// translation size and effective context bound.
	TranslatedStmts int `json:"translated_stmts,omitempty"`
	ContextBound    int `json:"context_bound,omitempty"`
	// WitnessJSONL is the exported witness trace (ravbmc.witness/v1
	// JSONL) for UNSAFE outcomes; stored alongside the entry and
	// returned to clients.
	WitnessJSONL []byte `json:"-"`
	// WitnessValidated reports that the witness replayed under the RA
	// operational semantics (true by construction for the engines that
	// execute RA directly).
	WitnessValidated bool `json:"witness_validated,omitempty"`
	// Unbounded marks a SAFE that holds for every K and L (the
	// thread-modular proof): top of the verdict lattice. An unbounded
	// entry answers a query at any K through subsumption.
	Unbounded bool `json:"unbounded,omitempty"`
	// Detail carries free-form engine output (the portfolio's rendered
	// report, an engine error message).
	Detail string `json:"detail,omitempty"`
	// Seconds is the wall time of the run that produced the outcome
	// (the original run for cached answers — telling a client how much
	// time the cache saved it).
	Seconds float64 `json:"seconds"`

	// Cached, Subsumed, SubsumedFromK and Collapsed describe how this
	// answer was obtained; set on the returned copy, never persisted.
	Cached        bool `json:"cached"`
	Subsumed      bool `json:"subsumed,omitempty"`
	SubsumedFromK int  `json:"subsumed_from_k,omitempty"`
	Collapsed     bool `json:"collapsed,omitempty"`
}

// cacheable reports whether the outcome is a trustworthy conclusion
// worth memoizing: SAFE, or UNSAFE backed by a validated witness.
func cacheable(o Outcome) bool {
	return o.Verdict == VerdictSafe || (o.Verdict == VerdictUnsafe && o.WitnessValidated)
}

// RunFunc executes a request on a miss. It receives the normalized
// request; the outcome it returns is delivered to every collapsed
// waiter and, if cacheable, stored.
type RunFunc func(ctx context.Context, req Request) (Outcome, error)

// Config configures a Cache.
type Config struct {
	// MaxBytes budgets the in-memory layer (entry payloads plus a
	// fixed per-entry overhead); 0 selects 64 MiB, negative is
	// unlimited. The budget is enforced by LRU eviction.
	MaxBytes int64
	// DiskPath, when non-empty, opens the JSONL disk store at that
	// path: existing entries are loaded (corrupt/stale lines skipped)
	// and new stores appended.
	DiskPath string
	// Version overrides the toolchain version embedded in every key;
	// empty selects internal/version.String(). Tests use it to model
	// binary upgrades.
	Version string
	// Obs, when non-nil, mirrors the cache counters ("cache.hits",
	// "cache.misses", "cache.subsumed_hits", "cache.evictions",
	// "cache.inflight_collapsed", "cache.stores") and gauges
	// ("cache.bytes", "cache.entries") onto the recorder, so run
	// reports and /metrics agree.
	Obs *obs.Recorder
}

// defaultMaxBytes is the in-memory budget when Config.MaxBytes is 0.
const defaultMaxBytes = 64 << 20

// entryOverhead approximates the fixed in-memory cost of one entry
// (map slot, list element, struct) on top of its payload bytes.
const entryOverhead = 512

// entry is one memoized outcome.
type entry struct {
	digest Digest
	group  Digest
	mode   string
	k      int
	out    Outcome // identity fields (Cached etc.) cleared
	bytes  int64
	elem   *list.Element
}

// group indexes a subsumption family's entries by K and verdict, plus
// the unbounded-SAFE tier: one entry proved for every K, dominating
// the whole safe map.
type group struct {
	safe   map[int]Digest // K -> digest of a SAFE entry
	unsafe map[int]Digest // K -> digest of a validated-UNSAFE entry
	// unbounded is the digest of an unbounded-SAFE entry (valid only
	// when hasUnbounded); it answers a query at any K.
	unbounded    Digest
	hasUnbounded bool
}

// index registers a stored entry in the subsumption tiers. The
// unbounded tier is keyed off Outcome.Unbounded, never off K: a SAFE@K
// must not be promoted to a proof for all K.
func (gr *group) index(k int, d Digest, out Outcome) {
	switch {
	case out.Verdict == VerdictSafe && out.Unbounded:
		gr.unbounded, gr.hasUnbounded = d, true
	case out.Verdict == VerdictSafe:
		gr.safe[k] = d
	case out.Verdict == VerdictUnsafe:
		gr.unsafe[k] = d
	}
}

// flight is one in-progress execution; concurrent identical requests
// wait on done instead of re-exploring.
type flight struct {
	done chan struct{}
	out  Outcome
	err  error
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits are exact-key answers; SubsumedHits answers via monotone-K
	// subsumption; Misses are lookups that started an execution.
	Hits, SubsumedHits, Misses int64
	// InflightCollapsed counts requests that waited on another's
	// execution instead of starting their own.
	InflightCollapsed int64
	// Stores and Evictions count entry insertions and LRU evictions.
	Stores, Evictions int64
	// DiskLoaded, DiskCorrupt and DiskStale count disk-store lines
	// installed, skipped as unreadable, and skipped for a version
	// mismatch.
	DiskLoaded, DiskCorrupt, DiskStale int64
	// Entries and BytesUsed describe the in-memory layer; BytesBudget
	// echoes the configured budget (<0 = unlimited).
	Entries     int
	BytesUsed   int64
	BytesBudget int64
}

// Cache is the content-addressed result cache. Construct with New; a
// nil *Cache is the disabled cache — Do degenerates to calling the
// runner directly, so callers can thread an optional cache without
// branching.
type Cache struct {
	version string
	budget  int64
	disk    *diskStore

	mu      sync.Mutex
	entries map[Digest]*entry
	lru     *list.List // front = most recently used
	used    int64
	groups  map[Digest]*group
	flights map[Digest]*flight

	hits, subsumedHits, misses atomic.Int64
	collapsed                  atomic.Int64
	stores, evictions          atomic.Int64
	diskLoaded                 atomic.Int64
	diskCorrupt, diskStale     atomic.Int64

	obsHits, obsSubsumed, obsMisses  *obs.Counter
	obsCollapsed, obsStores, obsEvic *obs.Counter
	obsBytes, obsEntries             *obs.Gauge
	// lookup distributes lookup latency (lock wait + map/subsumption
	// probe); standalone so the family exists regardless of Config.Obs.
	lookup *obs.Histogram
}

// New opens a cache. The returned error is only ever a disk-store
// failure (unreadable path); an in-memory cache cannot fail.
func New(cfg Config) (*Cache, error) {
	ver := cfg.Version
	if ver == "" {
		ver = version.String()
	}
	budget := cfg.MaxBytes
	if budget == 0 {
		budget = defaultMaxBytes
	}
	c := &Cache{
		version: ver,
		budget:  budget,
		entries: map[Digest]*entry{},
		lru:     list.New(),
		groups:  map[Digest]*group{},
		flights: map[Digest]*flight{},

		obsHits:      cfg.Obs.Counter("cache.hits"),
		obsSubsumed:  cfg.Obs.Counter("cache.subsumed_hits"),
		obsMisses:    cfg.Obs.Counter("cache.misses"),
		obsCollapsed: cfg.Obs.Counter("cache.inflight_collapsed"),
		obsStores:    cfg.Obs.Counter("cache.stores"),
		obsEvic:      cfg.Obs.Counter("cache.evictions"),
		obsBytes:     cfg.Obs.Gauge("cache.bytes"),
		obsEntries:   cfg.Obs.Gauge("cache.entries"),
		lookup:       obs.NewHistogram("cache.lookup_seconds", obs.DurationBuckets),
	}
	if cfg.DiskPath != "" {
		disk, err := openDisk(cfg.DiskPath)
		if err != nil {
			return nil, err
		}
		c.disk = disk
		c.loadDisk()
	}
	return c, nil
}

// Close flushes and closes the disk store (a no-op without one).
func (c *Cache) Close() error {
	if c == nil || c.disk == nil {
		return nil
	}
	return c.disk.close()
}

// Version returns the toolchain version embedded in every key.
func (c *Cache) Version() string {
	if c == nil {
		return version.String()
	}
	return c.version
}

// LookupSeconds snapshots the lookup-latency distribution (empty for
// the nil cache, so /metrics renders the family either way).
func (c *Cache) LookupSeconds() obs.HistogramSnapshot {
	if c == nil {
		return obs.NewHistogram("cache.lookup_seconds", obs.DurationBuckets).Snapshot()
	}
	return c.lookup.Snapshot()
}

// Stats snapshots the counters. Safe concurrently with Do.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, used := len(c.entries), c.used
	c.mu.Unlock()
	return Stats{
		Hits:              c.hits.Load(),
		SubsumedHits:      c.subsumedHits.Load(),
		Misses:            c.misses.Load(),
		InflightCollapsed: c.collapsed.Load(),
		Stores:            c.stores.Load(),
		Evictions:         c.evictions.Load(),
		DiskLoaded:        c.diskLoaded.Load(),
		DiskCorrupt:       c.diskCorrupt.Load(),
		DiskStale:         c.diskStale.Load(),
		Entries:           entries,
		BytesUsed:         used,
		BytesBudget:       c.budget,
	}
}

// Do answers the request from the cache, or executes run once (however
// many callers ask concurrently) and memoizes a cacheable outcome. On
// the nil cache it simply calls run. The context cancels this caller's
// wait and its own execution, but never an execution it merely
// collapsed onto — the leader's run continues for the other waiters.
func (c *Cache) Do(ctx context.Context, req Request, run RunFunc) (Outcome, error) {
	if req.Prog == nil {
		return Outcome{}, errors.New("cache: request has no program")
	}
	if !ValidMode(req.Mode) {
		return Outcome{}, errors.New("cache: unknown mode " + req.Mode)
	}
	nr := req.normalized()
	if c == nil {
		return run(ctx, nr)
	}
	canon := lang.Canon(nr.Prog)
	d := digest(canon, nr, c.version, false)
	g := digest(canon, nr, c.version, true)

	retried := false
	for {
		t0 := time.Now()
		c.mu.Lock()
		out, ok := c.lookupLocked(d, g, nr)
		c.lookup.ObserveSince(t0)
		if ok {
			c.mu.Unlock()
			return out, nil
		}
		if f, ok := c.flights[d]; ok {
			c.mu.Unlock()
			c.collapsed.Add(1)
			c.obsCollapsed.Inc()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Outcome{Verdict: VerdictInconclusive}, ctx.Err()
			}
			if f.err != nil {
				return f.out, f.err
			}
			if cacheable(f.out) || retried || ctx.Err() != nil {
				out := f.out
				out.Collapsed = true
				return out, nil
			}
			// The leader concluded nothing (it was cancelled or timed
			// out under its own budget); our context is still live, so
			// take one fresh attempt rather than inheriting its fate.
			retried = true
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[d] = f
		c.mu.Unlock()

		c.misses.Add(1)
		c.obsMisses.Inc()
		out, err := run(ctx, nr)
		out.Cached, out.Subsumed, out.SubsumedFromK, out.Collapsed = false, false, 0, false
		c.mu.Lock()
		delete(c.flights, d)
		if err == nil && cacheable(out) {
			c.storeLocked(d, g, nr, out)
		}
		c.mu.Unlock()
		f.out, f.err = out, err
		close(f.done)
		return out, err
	}
}

// lookupLocked answers from the exact entry or by subsumption. Callers
// hold c.mu.
func (c *Cache) lookupLocked(d, g Digest, r Request) (Outcome, bool) {
	if e, ok := c.entries[d]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits.Add(1)
		c.obsHits.Inc()
		out := e.out
		out.Cached = true
		return out, true
	}
	if !subsumable(r.Mode) {
		return Outcome{}, false
	}
	gr, ok := c.groups[g]
	if !ok {
		return Outcome{}, false
	}
	// The unbounded tier first: a thread-modular proof answers every K.
	if gr.hasUnbounded {
		if e, ok := c.entries[gr.unbounded]; ok {
			return c.subsumedLocked(e.digest, e.k)
		}
	}
	// A SAFE at the smallest K' ≥ k answers k: no behaviour within k
	// view switches fails, because none within K' does.
	bestK, found := 0, false
	for k2 := range gr.safe {
		if k2 >= r.K && (!found || k2 < bestK) {
			bestK, found = k2, true
		}
	}
	if !found {
		// A validated UNSAFE at the largest K' ≤ k answers k: its
		// witness uses at most K' ≤ k view switches.
		for k2 := range gr.unsafe {
			if k2 <= r.K && (!found || k2 > bestK) {
				bestK, found = k2, true
			}
		}
		if !found {
			return Outcome{}, false
		}
		return c.subsumedLocked(gr.unsafe[bestK], bestK)
	}
	return c.subsumedLocked(gr.safe[bestK], bestK)
}

// subsumedLocked materialises a subsumption answer from the source
// entry. Callers hold c.mu.
func (c *Cache) subsumedLocked(d Digest, fromK int) (Outcome, bool) {
	e, ok := c.entries[d]
	if !ok {
		// The group index is pruned on eviction, so this is a bug
		// guard, not an expected path.
		return Outcome{}, false
	}
	c.lru.MoveToFront(e.elem)
	c.subsumedHits.Add(1)
	c.obsSubsumed.Inc()
	out := e.out
	out.Cached = true
	out.Subsumed = true
	out.SubsumedFromK = fromK
	return out, true
}

// entryBytes approximates the in-memory cost of an outcome.
func entryBytes(o Outcome) int64 {
	return entryOverhead + int64(len(o.WitnessJSONL)) + int64(len(o.Detail))
}

// storeLocked inserts an entry, indexes it for subsumption, enforces
// the byte budget and appends to the disk store. Callers hold c.mu.
func (c *Cache) storeLocked(d, g Digest, r Request, out Outcome) {
	if e, ok := c.entries[d]; ok {
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &entry{digest: d, group: g, mode: r.Mode, k: r.K, out: out, bytes: entryBytes(out)}
	e.elem = c.lru.PushFront(e)
	c.entries[d] = e
	c.used += e.bytes
	if subsumable(r.Mode) {
		gr := c.groups[g]
		if gr == nil {
			gr = &group{safe: map[int]Digest{}, unsafe: map[int]Digest{}}
			c.groups[g] = gr
		}
		gr.index(r.K, d, out)
	}
	c.stores.Add(1)
	c.obsStores.Inc()
	c.evictLocked()
	c.obsBytes.Set(c.used)
	c.obsEntries.Set(int64(len(c.entries)))
	if c.disk != nil {
		c.disk.append(diskRecord(e, c.version))
	}
}

// evictLocked drops least-recently-used entries until the budget is
// met. A single entry larger than the whole budget is kept — evicting
// it would just thrash. Callers hold c.mu.
func (c *Cache) evictLocked() {
	if c.budget < 0 {
		return
	}
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, e.digest)
		c.used -= e.bytes
		if gr, ok := c.groups[e.group]; ok {
			if gr.safe[e.k] == e.digest {
				delete(gr.safe, e.k)
			}
			if gr.unsafe[e.k] == e.digest {
				delete(gr.unsafe, e.k)
			}
			if gr.hasUnbounded && gr.unbounded == e.digest {
				gr.hasUnbounded = false
			}
			if len(gr.safe) == 0 && len(gr.unsafe) == 0 && !gr.hasUnbounded {
				delete(c.groups, e.group)
			}
		}
		c.evictions.Add(1)
		c.obsEvic.Inc()
	}
}

package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SearchSchema identifies the snapshot-series export format of a
// sampled search: the schema field of every SearchSeries.
const SearchSchema = "ravbmc.search/v1"

// SearchStats is the live telemetry block of one search: a set of
// atomics the engines (ra.Explore, sc.Check, smc.Check) update in bulk
// on a sampled cadence (every 1024 expansions or DFS entries), so
// the hot path pays a handful of atomic adds per kilostep and nothing
// per state. Consumers (the Sampler, the vbmcd SSE stream, /metrics)
// read it with Snapshot at any time without stalling the search.
//
// Like every obs instrument, the nil *SearchStats is the disabled
// block: all methods no-op and Snapshot returns zeros. Engines resolve
// it once per search via Recorder.Search.
//
// Counters accumulate across engine runs against the same recorder —
// the VBMC probe/deepening ladder runs many sc.Check passes, and the
// stats report the run's totals, matching the Result the driver sums.
type SearchStats struct {
	states      atomic.Int64
	transitions atomic.Int64
	executions  atomic.Int64
	dedupProbes atomic.Int64
	dedupHits   atomic.Int64
	violations  atomic.Int64

	frontier    atomic.Int64 // current frontier size (see SetFrontier)
	frontierHWM atomic.Int64 // deepest frontier seen

	visitedEntries atomic.Int64 // occupancy of the current visited set
	visitedBytes   atomic.Int64 // its approximate heap footprint

	k atomic.Int64 // current view-bound probe (-1 = not applicable)
	l atomic.Int64 // current unrolling bound (-1 = not applicable)

	// EWMA states/s, updated at snapshot time (never on the hot path):
	// float64 bits under CAS, blended with a ~2s time constant.
	rate      atomic.Uint64
	lastWork  atomic.Int64
	lastNanos atomic.Int64
}

// NewSearchStats returns an enabled stats block with K/L marked
// unknown.
func NewSearchStats() *SearchStats {
	s := &SearchStats{}
	s.k.Store(-1)
	s.l.Store(-1)
	return s
}

// Add accumulates the deltas of one flush: states visited, transitions
// explored, dedup probes and hits, and violations seen since the last
// flush.
func (s *SearchStats) Add(states, transitions, dedupProbes, dedupHits, violations int64) {
	if s == nil {
		return
	}
	s.states.Add(states)
	s.transitions.Add(transitions)
	s.dedupProbes.Add(dedupProbes)
	s.dedupHits.Add(dedupHits)
	s.violations.Add(violations)
}

// AddExecutions accumulates completed (maximal) executions — the
// stateless baselines' progress measure.
func (s *SearchStats) AddExecutions(n int64) {
	if s == nil {
		return
	}
	s.executions.Add(n)
}

// SetFrontier records the current frontier size and maintains its
// high-water mark. The sc and ra searches, which run on a
// work-stealing pool at every width, report the pending frontier items
// (queued plus in-process), not a DFS stack depth; the stateless smc
// baseline reports its DFS path depth.
func (s *SearchStats) SetFrontier(n int64) {
	if s == nil {
		return
	}
	s.frontier.Store(n)
	for {
		cur := s.frontierHWM.Load()
		if n <= cur || s.frontierHWM.CompareAndSwap(cur, n) {
			return
		}
	}
}

// SetVisited records the visited set's occupancy and approximate byte
// footprint (fp.Set.Len / fp.Set.ApproxBytes).
func (s *SearchStats) SetVisited(entries, bytes int64) {
	if s == nil {
		return
	}
	s.visitedEntries.Store(entries)
	s.visitedBytes.Store(bytes)
}

// SetProbe records the bounds the search currently runs under; -1
// marks a dimension as not applicable (e.g. K for a stateless run).
func (s *SearchStats) SetProbe(k, l int64) {
	if s == nil {
		return
	}
	s.k.Store(k)
	s.l.Store(l)
}

// rateTau is the EWMA time constant and rateMinInterval the shortest
// spacing between rate updates (back-to-back snapshots — the sampler
// plus a /metrics scrape — must not inject near-zero-dt noise).
const (
	rateTau         = 2 * time.Second
	rateMinInterval = 50 * time.Millisecond
)

// SearchPoint is one timestamped snapshot of a live search — the
// sample of a SearchSeries and the payload of an SSE "search" frame.
type SearchPoint struct {
	// TMS is milliseconds since the sampler started (0 on snapshots
	// taken outside a sampler).
	TMS int64 `json:"t_ms"`
	// Phase is the innermost open recorder phase at sample time.
	Phase string `json:"phase,omitempty"`

	States      int64 `json:"states"`
	Transitions int64 `json:"transitions"`
	Executions  int64 `json:"executions,omitempty"`
	Frontier    int64 `json:"frontier"`
	FrontierHWM int64 `json:"frontier_hwm"`
	DedupProbes int64 `json:"dedup_probes"`
	DedupHits   int64 `json:"dedup_hits"`
	Violations  int64 `json:"violations,omitempty"`

	VisitedEntries int64 `json:"visited_entries"`
	VisitedBytes   int64 `json:"visited_bytes"`

	// K and L are the bounds of the current probe (-1 = unknown/not
	// applicable).
	K int64 `json:"k"`
	L int64 `json:"l"`

	// StatesPerSec is the EWMA search rate (transitions stand in for
	// the stateless baselines, mirroring Progress).
	StatesPerSec float64 `json:"states_per_sec"`

	// DeepenRounds / DeepenTotal report progress through the VBMC
	// context-deepening ladder ("core.deepen_rounds" over
	// "core.deepen_total") — the basis of the -watch ETA heuristic.
	// Zero outside VBMC runs.
	DeepenRounds int64 `json:"deepen_rounds,omitempty"`
	DeepenTotal  int64 `json:"deepen_total,omitempty"`
}

// work is the progress measure the rate tracks: visited states when the
// search is stateful, transitions otherwise.
func (p SearchPoint) work() int64 {
	if p.States > 0 {
		return p.States
	}
	if p.Transitions > 0 {
		return p.Transitions
	}
	return p.Executions
}

// Snapshot reads the current stats. Safe concurrently with a running
// search and with other snapshotters; the nil stats snapshot is all
// zeros. Snapshots at least rateMinInterval apart advance the EWMA
// rate (exactly one of any set of racing snapshotters wins the update).
func (s *SearchStats) Snapshot() SearchPoint {
	if s == nil {
		return SearchPoint{K: -1, L: -1}
	}
	p := SearchPoint{
		States:         s.states.Load(),
		Transitions:    s.transitions.Load(),
		Executions:     s.executions.Load(),
		Frontier:       s.frontier.Load(),
		FrontierHWM:    s.frontierHWM.Load(),
		DedupProbes:    s.dedupProbes.Load(),
		DedupHits:      s.dedupHits.Load(),
		Violations:     s.violations.Load(),
		VisitedEntries: s.visitedEntries.Load(),
		VisitedBytes:   s.visitedBytes.Load(),
		K:              s.k.Load(),
		L:              s.l.Load(),
	}
	now := time.Now().UnixNano()
	last := s.lastNanos.Load()
	switch {
	case last == 0:
		// First snapshot: seed the baseline, rate stays 0.
		if s.lastNanos.CompareAndSwap(0, now) {
			s.lastWork.Store(p.work())
		}
	case now-last >= int64(rateMinInterval):
		if s.lastNanos.CompareAndSwap(last, now) {
			work := p.work()
			prev := s.lastWork.Swap(work)
			dt := float64(now-last) / 1e9
			inst := float64(work-prev) / dt
			alpha := 1 - math.Exp(-dt/rateTau.Seconds())
			for {
				old := s.rate.Load()
				next := math.Float64bits(math.Float64frombits(old) + alpha*(inst-math.Float64frombits(old)))
				if s.rate.CompareAndSwap(old, next) {
					break
				}
			}
		}
	}
	p.StatesPerSec = math.Float64frombits(s.rate.Load())
	return p
}

// SearchSeries is the sampled time-series of one search: the
// ravbmc.search/v1 export attached to run reports and vbmcd ledger
// entries.
type SearchSeries struct {
	Schema string `json:"schema"`
	// IntervalMS is the configured sampling cadence; individual samples
	// carry their own t_ms stamps (compaction makes old spacing wider).
	IntervalMS int64         `json:"interval_ms"`
	Samples    []SearchPoint `json:"samples"`
}

// defaultSampleInterval is the sampling cadence when the caller names
// none; maxSamples bounds a series — when full, every other sample is
// dropped (halving compaction), so long runs keep full time coverage at
// progressively coarser resolution.
const (
	defaultSampleInterval = 500 * time.Millisecond
	maxSamples            = 512
)

// Sampler periodically snapshots a recorder's SearchStats into a
// bounded SearchSeries and fans each sample out to subscribers (the
// vbmcd SSE stream, the -watch dashboard). It runs on its own
// goroutine and reads only atomics, so it never stalls the search; a
// nil *Sampler is inert, so callers can unconditionally defer Stop.
type Sampler struct {
	rec      *Recorder
	stats    *SearchStats
	interval time.Duration
	start    time.Time
	stopCh   chan struct{}
	done     chan struct{}

	mu       sync.Mutex
	samples  []SearchPoint
	subs     map[chan SearchPoint]struct{}
	stopping bool // Stop initiated: the stopCh close is claimed
	stopped  bool // Stop finished: series sealed, subscriber channels closed
}

// NewSampler starts a sampler over rec's search stats, snapshotting
// every interval (non-positive selects 500ms).
func NewSampler(rec *Recorder, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = defaultSampleInterval
	}
	s := &Sampler{
		rec:      rec,
		stats:    rec.Search(),
		interval: interval,
		start:    time.Now(),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		subs:     map[chan SearchPoint]struct{}{},
	}
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// sample takes one snapshot, appends it to the series (with halving
// compaction when full) and fans it out to subscribers. Sends are
// non-blocking: a subscriber that stopped draining loses samples, the
// sampler — and therefore the search — never stalls.
func (s *Sampler) sample() {
	p := s.stats.Snapshot()
	p.TMS = time.Since(s.start).Milliseconds()
	p.Phase = s.rec.Phase()
	p.DeepenRounds = s.rec.Counter("core.deepen_rounds").Value()
	p.DeepenTotal = s.rec.Gauge("core.deepen_total").Value()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.samples = append(s.samples, p)
	if len(s.samples) > maxSamples {
		kept := s.samples[:0]
		for i := 0; i < len(s.samples); i += 2 {
			kept = append(kept, s.samples[i])
		}
		s.samples = kept
	}
	for ch := range s.subs {
		select {
		case ch <- p:
		default: // slow consumer: drop, never block
		}
	}
}

// Subscribe registers a buffered live feed of future samples. The
// channel closes when the sampler stops; call unsubscribe to detach
// early (idempotent, also closes the channel). Samples a full buffer
// cannot take are dropped.
func (s *Sampler) Subscribe(buf int) (ch <-chan SearchPoint, unsubscribe func()) {
	if buf <= 0 {
		buf = 16
	}
	c := make(chan SearchPoint, buf)
	s.mu.Lock()
	if s.stopped {
		close(c)
		s.mu.Unlock()
		return c, func() {}
	}
	s.subs[c] = struct{}{}
	s.mu.Unlock()
	return c, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.subs[c]; ok {
			delete(s.subs, c)
			close(c)
		}
	}
}

// Snapshot takes an immediate snapshot of the underlying stats block,
// without appending to the series — for /metrics scrapes between
// sampler ticks. Safe on the nil sampler.
func (s *Sampler) Snapshot() SearchPoint {
	if s == nil {
		return SearchPoint{K: -1, L: -1}
	}
	return s.stats.Snapshot()
}

// Subscribers reports how many live feeds are attached (tests and the
// /metrics gauge).
func (s *Sampler) Subscribers() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Series returns a copy of the samples captured so far as a
// ravbmc.search/v1 series (nil sampler: nil).
func (s *Sampler) Series() *SearchSeries {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SearchSeries{
		Schema:     SearchSchema,
		IntervalMS: s.interval.Milliseconds(),
		Samples:    append([]SearchPoint(nil), s.samples...),
	}
}

// Stop halts the sampler: one final sample is taken (so the series'
// last snapshot carries the search's final totals), the goroutine
// exits and every subscriber channel closes. Idempotent and safe on
// the nil sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stopping {
		// A racing Stop owns the shutdown; wait for the loop to exit
		// rather than double-closing stopCh.
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopping = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.done
	s.sample() // the terminal sample, delivered to subscribers too
	s.mu.Lock()
	s.stopped = true
	for ch := range s.subs {
		delete(s.subs, ch)
		close(ch)
	}
	s.mu.Unlock()
}

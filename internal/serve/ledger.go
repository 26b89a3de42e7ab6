package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"ravbmc/internal/obs"
)

// RunRecord is one ledger entry: the full account of a vbmcd request —
// identity, cache disposition, per-phase timings and (in detail views)
// the span tree. The run ID on the record is the same one stamped on
// the response body, every slog line and any exported span tree, so one
// grep correlates all four.
type RunRecord struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	// Endpoint is "verify" or "mink"; Mode is the cache mode requested.
	Endpoint string `json:"endpoint"`
	Mode     string `json:"mode,omitempty"`
	// Batch is the batch ID when this run was one item of a /v1/batch
	// fan-out, "" for direct requests.
	Batch string `json:"batch,omitempty"`
	// Program is the bench name or parsed program name; ProgramSHA is
	// the SHA-256 of its canonical form — the content part of the cache
	// key, so identical sources share a hash across runs.
	Program    string `json:"program,omitempty"`
	ProgramSHA string `json:"program_sha,omitempty"`
	K          int    `json:"k,omitempty"`
	MaxK       int    `json:"max_k,omitempty"`
	Unroll     int    `json:"l,omitempty"`
	// Status is "running" until the request finishes, then "done",
	// "rejected" (429/503) or "error". HTTPStatus is the code written.
	Status     string `json:"status"`
	HTTPStatus int    `json:"http_status,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	// Cache is the disposition: "hit", "subsumed", "collapsed" or
	// "miss" ("" when the request never reached the cache).
	Cache  string `json:"cache,omitempty"`
	States int    `json:"states,omitempty"`
	Error  string `json:"error,omitempty"`
	// Per-phase timings, derived from the request's span tree: queue
	// wait, cache lookup (cache span minus the engine run inside it),
	// engine execution and witness replay. Their sum tracks
	// TotalSeconds to within the handler's own overhead.
	QueueWaitSeconds   float64 `json:"queue_wait_seconds"`
	CacheLookupSeconds float64 `json:"cache_lookup_seconds"`
	EngineSeconds      float64 `json:"engine_seconds"`
	ReplaySeconds      float64 `json:"replay_seconds"`
	TotalSeconds       float64 `json:"total_seconds"`
	// SlowDump is the flight recorder's capture, present only when the
	// run crossed the slow-run threshold while still in flight.
	SlowDump *SlowDump `json:"slow_dump,omitempty"`
	// Spans is the request's span tree; populated in /v1/runs/{id}
	// detail responses and omitted from /v1/runs summaries.
	Spans []*obs.SpanNode `json:"spans,omitempty"`
	// ClientRef is the caller-chosen alias of this run (the request's
	// client_ref), resolvable by /v1/runs/{id}/events before the caller
	// learns the server-minted run ID.
	ClientRef string `json:"client_ref,omitempty"`
	// Search is the sampled ravbmc.search/v1 telemetry series of the
	// run's engine execution; populated in detail responses and SSE
	// replays, omitted from /v1/runs summaries.
	Search *obs.SearchSeries `json:"search,omitempty"`
}

// SlowDump is what the flight recorder captures when a run exceeds the
// slow-run threshold: the live span tree and a progress snapshot, taken
// while the run is still going — the record of "what was it doing" that
// a timeout would otherwise destroy.
type SlowDump struct {
	// AfterSeconds is the threshold that tripped the dump.
	AfterSeconds float64 `json:"after_seconds"`
	// Phase is the innermost open phase at capture time.
	Phase string `json:"phase,omitempty"`
	// Counters are the run's engine counters at capture time.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Spans is the live span tree (open spans marked, durations
	// elapsed-so-far).
	Spans []*obs.SpanNode `json:"spans,omitempty"`
}

// Ledger is the daemon's bounded run history: a ring of the most
// recent RunRecords, indexed by run ID, with an optional JSONL audit
// stream. All methods are safe for concurrent use; the ring never
// exceeds its capacity — the oldest record is evicted (and its ID
// forgotten, so /v1/runs/{id} 404s) when a new one arrives full.
type Ledger struct {
	mu     sync.Mutex
	cap    int
	seq    int64
	prefix string
	ring   []*RunRecord // ring buffer; ring[head] is the next slot
	head   int
	count  int
	byID   map[string]*RunRecord
	// aliases maps caller-chosen client_ref strings to run IDs (latest
	// binding wins); entries die with their record's eviction.
	aliases   map[string]string
	evictions int64
	audit     io.Writer
}

// defaultLedgerSize is the ring capacity when the config names none.
const defaultLedgerSize = 256

// NewLedger builds a ledger holding at most capacity runs (<=0 selects
// 256). audit, when non-nil, receives one JSON line per completed run
// and per flight-recorder dump.
func NewLedger(capacity int, audit io.Writer) *Ledger {
	if capacity <= 0 {
		capacity = defaultLedgerSize
	}
	var b [4]byte
	rand.Read(b[:])
	return &Ledger{
		cap:     capacity,
		prefix:  hex.EncodeToString(b[:]),
		ring:    make([]*RunRecord, capacity),
		byID:    map[string]*RunRecord{},
		aliases: map[string]string{},
		audit:   audit,
	}
}

// NewBatchID mints a batch ID from the same prefix and sequence space
// as run IDs, "b-"-marked so a grep tells the two apart; every item of
// the batch carries it in its RunRecord.Batch.
func (l *Ledger) NewBatchID() string {
	l.mu.Lock()
	l.seq++
	id := fmt.Sprintf("b-%s-%06d", l.prefix, l.seq)
	l.mu.Unlock()
	return id
}

// Add inserts a record, evicting the oldest when full, and returns the
// run ID it minted into rec.ID: a per-process random prefix (so IDs
// from different daemon incarnations never collide in logs) plus a
// monotone sequence number. Minting under the lock that places the
// record keeps the ring in ID order, so Recent is newest-first by ID.
func (l *Ledger) Add(rec *RunRecord) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	rec.ID = fmt.Sprintf("r-%s-%06d", l.prefix, l.seq)
	if old := l.ring[l.head]; old != nil {
		delete(l.byID, old.ID)
		if old.ClientRef != "" && l.aliases[old.ClientRef] == old.ID {
			delete(l.aliases, old.ClientRef)
		}
		l.evictions++
	}
	l.ring[l.head] = rec
	l.byID[rec.ID] = rec
	l.head = (l.head + 1) % l.cap
	if l.count < l.cap {
		l.count++
	}
	return rec.ID
}

// Alias binds a caller-chosen reference to a run ID, so a client can
// address the run — e.g. subscribe to its event stream — before the
// verify response delivers the minted ID. The newest run wins the
// binding: concurrent requests sharing a ref can deliver their Alias
// calls out of run order, so the decision is made on the records'
// start times, not call arrival. The superseded record's ClientRef is
// cleared — exactly one retained record claims a ref at a time, and a
// stream already resolved through the old binding stays pinned to its
// run ID. No-op for evicted or unknown IDs.
func (l *Ledger) Alias(ref, id string) {
	if ref == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.byID[id]
	if !ok {
		return
	}
	if prevID, bound := l.aliases[ref]; bound && prevID != id {
		if prev, live := l.byID[prevID]; live {
			if prev.Start.After(rec.Start) {
				return // a newer run already holds the ref
			}
			prev.ClientRef = ""
		}
	}
	if rec.ClientRef != "" && rec.ClientRef != ref && l.aliases[rec.ClientRef] == id {
		// The record abandons its previous ref; without this the old
		// alias entry dangles past the record's eviction and Resolve
		// hands out a dead run ID.
		delete(l.aliases, rec.ClientRef)
	}
	rec.ClientRef = ref
	l.aliases[ref] = id
}

// Resolve maps a run ID or client_ref alias to the canonical run ID;
// ok is false when neither names a retained record.
func (l *Ledger) Resolve(idOrRef string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byID[idOrRef]; ok {
		return idOrRef, true
	}
	if id, ok := l.aliases[idOrRef]; ok {
		return id, true
	}
	return "", false
}

// Evictions returns how many records the ring has discarded.
func (l *Ledger) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}

// Update applies f to the record under the ledger lock (records are
// shared with concurrent readers, so every mutation goes through
// here). It reports whether the ID was still present.
func (l *Ledger) Update(id string, f func(*RunRecord)) bool {
	l.mu.Lock()
	rec, ok := l.byID[id]
	if ok {
		f(rec)
	}
	l.mu.Unlock()
	return ok
}

// SetSlowDump installs the flight recorder's capture, exactly once per
// run: the first call wins and returns true, later calls (and calls
// for evicted IDs) return false without touching the record.
func (l *Ledger) SetSlowDump(id string, d *SlowDump) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.byID[id]
	if !ok || rec.SlowDump != nil {
		return false
	}
	rec.SlowDump = d
	return true
}

// Get returns a copy of the record (detail view, span tree included).
func (l *Ledger) Get(id string) (RunRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.byID[id]
	if !ok {
		return RunRecord{}, false
	}
	return *rec, true
}

// Recent returns copies of the newest n records (all of them when
// n <= 0), newest first, with the span trees and slow dumps elided —
// the /v1/runs summary view.
func (l *Ledger) Recent(n int) []RunRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.count {
		n = l.count
	}
	out := make([]RunRecord, 0, n)
	for i := 1; i <= n; i++ {
		rec := l.ring[(l.head-i+l.cap*2)%l.cap]
		sum := *rec
		sum.Spans = nil
		sum.SlowDump = nil
		sum.Search = nil
		out = append(out, sum)
	}
	return out
}

// Len returns the number of records currently held.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// auditLine writes one JSON object line to the audit stream (a no-op
// without one). The record is serialised under the ledger lock so a
// concurrent Update cannot tear it.
func (l *Ledger) auditLine(kind, id string) {
	if l.audit == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.byID[id]
	if !ok {
		return
	}
	line := struct {
		Kind string `json:"kind"`
		RunRecord
	}{Kind: kind, RunRecord: *rec}
	line.Spans = nil // audit lines are summaries; slow dumps carry their own tree
	line.Search = nil
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	l.audit.Write(append(b, '\n'))
}

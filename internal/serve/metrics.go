package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ravbmc/internal/obs"
	"ravbmc/internal/version"
)

// handleHealthz is liveness: 200 as long as the process serves HTTP,
// draining included — use /readyz to learn whether it accepts work.
// The combined body (ok + draining) predates the split and stays for
// existing probes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"draining":       s.Draining(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"version": s.cfg.Cache.Version(),
		"binary":  version.String(),
	})
}

// metricsWriter accumulates Prometheus exposition text, one family at a
// time: HELP, then TYPE, then the samples — the ordering promlint
// demands. Families render in the order the handler emits them, which
// is fixed, so successive scrapes diff cleanly.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) family(name, typ, help string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) scalar(name, typ, help string, v any) {
	m.family(name, typ, help)
	fmt.Fprintf(&m.b, "%s %v\n", name, v)
}

// histogram renders one obs.HistogramSnapshot as a Prometheus histogram
// family. The snapshot's per-bucket counts are non-cumulative; the
// exposition format wants cumulative counts per le bound plus the
// implicit +Inf bucket equal to _count.
func (m *metricsWriter) histogram(name, help string, h obs.HistogramSnapshot) {
	m.family(name, "histogram", help)
	var cum int64
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(&m.b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	fmt.Fprintf(&m.b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(&m.b, "%s_sum %v\n", name, h.Sum)
	fmt.Fprintf(&m.b, "%s_count %d\n", name, h.Count)
}

// handleMetrics renders Prometheus exposition text: the cache's stats
// under ravbmc_cache_*, the server's admission and ledger state plus
// its latency histograms under ravbmc_serve_*, and — when a recorder
// is attached — every obs instrument under ravbmc_obs_*. Every family
// carries HELP and TYPE lines and the family order is fixed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m metricsWriter

	st := s.cfg.Cache.Stats()
	m.scalar("ravbmc_cache_hits_total", "counter", "Exact-key cache answers.", st.Hits)
	m.scalar("ravbmc_cache_subsumed_hits_total", "counter", "Cache answers via monotone-K subsumption.", st.SubsumedHits)
	m.scalar("ravbmc_cache_misses_total", "counter", "Lookups that started an engine execution.", st.Misses)
	m.scalar("ravbmc_cache_inflight_collapsed_total", "counter", "Requests that waited on an identical in-flight execution.", st.InflightCollapsed)
	m.scalar("ravbmc_cache_stores_total", "counter", "Entries inserted into the cache.", st.Stores)
	m.scalar("ravbmc_cache_evictions_total", "counter", "Entries evicted to meet the byte budget.", st.Evictions)
	m.scalar("ravbmc_cache_disk_loaded_total", "counter", "Disk-store lines installed at startup.", st.DiskLoaded)
	m.scalar("ravbmc_cache_disk_corrupt_total", "counter", "Disk-store lines skipped as unreadable.", st.DiskCorrupt)
	m.scalar("ravbmc_cache_disk_stale_total", "counter", "Disk-store lines skipped for a version mismatch.", st.DiskStale)
	m.scalar("ravbmc_cache_entries", "gauge", "Entries currently in the in-memory layer.", st.Entries)
	m.scalar("ravbmc_cache_bytes_used", "gauge", "Bytes used by the in-memory layer.", st.BytesUsed)
	m.scalar("ravbmc_cache_bytes_budget", "gauge", "Configured in-memory byte budget (negative = unlimited).", st.BytesBudget)
	m.histogram("ravbmc_cache_lookup_seconds", "Cache lookup latency (lock wait plus key and subsumption probe).", s.cfg.Cache.LookupSeconds())

	m.scalar("ravbmc_serve_requests_total", "counter", "Verification requests received.", s.reqs.Value())
	m.scalar("ravbmc_serve_rejected_total", "counter", "Requests rejected by admission (queue full).", s.rejected.Value())
	m.scalar("ravbmc_serve_errors_total", "counter", "Requests that failed or expired.", s.failed.Value())
	m.scalar("ravbmc_serve_slow_dumps_total", "counter", "Flight-recorder dumps taken for slow runs.", s.slowDumps.Value())
	m.scalar("ravbmc_serve_active", "gauge", "Requests currently executing.", len(s.work))
	m.scalar("ravbmc_serve_queued", "gauge", "Requests admitted and waiting for a worker.", len(s.admit)-len(s.work))
	m.scalar("ravbmc_serve_workers", "gauge", "Configured worker slots.", s.cfg.Workers)
	m.scalar("ravbmc_serve_queue_capacity", "gauge", "Configured queue capacity beyond the workers.", s.cfg.Queue)
	m.scalar("ravbmc_serve_ledger_runs", "gauge", "Run records currently retained in the ledger.", s.ledger.Len())
	m.scalar("ravbmc_serve_ledger_entries", "gauge", "Run records currently retained in the ledger.", s.ledger.Len())
	m.scalar("ravbmc_serve_ledger_evictions_total", "counter", "Run records evicted from the ledger ring.", s.ledger.Evictions())
	drain := 0
	if s.Draining() {
		drain = 1
	}
	m.scalar("ravbmc_serve_draining", "gauge", "1 while the server is draining, else 0.", drain)
	m.scalar("ravbmc_serve_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.start).Seconds())
	m.scalar("ravbmc_serve_batches_total", "counter", "Batch requests received.", s.batches.Value())
	m.scalar("ravbmc_serve_batch_items_total", "counter", "Batch items executed.", s.batchItems.Value())
	m.scalar("ravbmc_serve_batch_item_failures_total", "counter", "Batch items that failed.", s.batchItemFails.Value())
	m.histogram("ravbmc_serve_request_seconds", "End-to-end request latency, decode to response.", s.hRequest.Snapshot())
	m.histogram("ravbmc_serve_queue_wait_seconds", "Time from arrival to admission.", s.hQueueWait.Snapshot())

	// Live search telemetry, aggregated over every in-flight run's
	// SearchStats snapshot.
	var agg obs.SearchPoint
	var rate float64
	s.watchMu.Lock()
	active := len(s.watches)
	samplers := make([]*obs.Sampler, 0, active)
	for _, smp := range s.watches {
		samplers = append(samplers, smp)
	}
	s.watchMu.Unlock()
	for _, smp := range samplers {
		p := smp.Snapshot()
		agg.States += p.States
		agg.Transitions += p.Transitions
		agg.Frontier += p.Frontier
		agg.DedupProbes += p.DedupProbes
		agg.DedupHits += p.DedupHits
		agg.VisitedBytes += p.VisitedBytes
		rate += p.StatesPerSec
	}
	m.scalar("ravbmc_search_active_runs", "gauge", "Runs currently exposing live search telemetry.", active)
	m.scalar("ravbmc_search_states", "gauge", "States visited across in-flight searches.", agg.States)
	m.scalar("ravbmc_search_transitions", "gauge", "Transitions explored across in-flight searches.", agg.Transitions)
	m.scalar("ravbmc_search_frontier_depth", "gauge", "Summed DFS frontier depth of in-flight searches.", agg.Frontier)
	m.scalar("ravbmc_search_dedup_probes", "gauge", "Visited-set probes across in-flight searches.", agg.DedupProbes)
	m.scalar("ravbmc_search_dedup_hits", "gauge", "Visited-set hits across in-flight searches.", agg.DedupHits)
	m.scalar("ravbmc_search_visited_bytes", "gauge", "Approximate visited-set bytes across in-flight searches.", agg.VisitedBytes)
	m.scalar("ravbmc_search_states_per_sec", "gauge", "Summed EWMA search rate of in-flight searches.", rate)

	if s.obs != nil {
		snap := s.obs.Snapshot()
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m.scalar("ravbmc_obs_"+sanitizeMetric(name)+"_total", "counter",
				"Engine counter "+name+".", snap.Counters[name])
		}
		names = names[:0]
		for name := range snap.Gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m.scalar("ravbmc_obs_"+sanitizeMetric(name), "gauge",
				"Engine gauge "+name+".", snap.Gauges[name])
		}
		names = names[:0]
		for name := range snap.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m.histogram("ravbmc_obs_"+sanitizeMetric(name),
				"Engine distribution "+name+".", snap.Histograms[name])
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(m.b.String()))
}

// sanitizeMetric maps an obs instrument name onto the Prometheus
// charset ([a-zA-Z0-9_]).
func sanitizeMetric(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, name)
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ravbmc/internal/cache"
)

// startLongRun posts a verification that stays in flight for the whole
// test (Close cancels it at cleanup) and waits for its sampler to
// register, returning the run ID. ref, when non-empty, is sent as the
// request's client_ref.
func startLongRun(t *testing.T, s *Server, baseURL, ref string) string {
	t.Helper()
	go func() {
		req := VerifyRequest{Bench: "peterson_4(3)", Mode: cache.ModeVBMC, K: 2, Unroll: 1, TimeoutSeconds: 120, ClientRef: ref}
		b, _ := json.Marshal(req)
		resp, err := http.Post(baseURL+"/v1/verify", "application/json", strings.NewReader(string(b)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.watchMu.Lock()
		for id := range s.watches {
			s.watchMu.Unlock()
			return id
		}
		s.watchMu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("run never registered a sampler")
	return ""
}

// collectStream consumes one event stream on its own goroutine,
// signalling the first search frame and delivering every done frame.
func collectStream(ctx context.Context, client *Client, id string) (gotSearch <-chan struct{}, dones <-chan doneEvent, errc <-chan error) {
	search := make(chan struct{})
	doneCh := make(chan doneEvent, 4)
	ec := make(chan error, 1)
	go func() {
		var once sync.Once
		ec <- client.StreamEvents(ctx, id, func(event string, data []byte) error {
			switch event {
			case "search":
				once.Do(func() { close(search) })
			case "done":
				var d doneEvent
				if err := json.Unmarshal(data, &d); err != nil {
					return err
				}
				doneCh <- d
			}
			return nil
		})
		close(doneCh)
	}()
	return search, doneCh, ec
}

// TestEventsEvictionMidStreamEmitsDoneFrame is the regression test for
// the ring evicting a run while its event stream is live: the stream's
// record disappears mid-flight, and the terminal frame must say so —
// status "evicted", the pinned run ID — rather than arriving with an
// empty status (the old zero-RunRecord bug) or not at all.
func TestEventsEvictionMidStreamEmitsDoneFrame(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 2, LedgerSize: 2, SampleInterval: 2 * time.Millisecond})
	runID := startLongRun(t, s, client.base, "")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gotSearch, dones, errc := collectStream(ctx, client, runID)
	select {
	case <-gotSearch:
	case <-time.After(10 * time.Second):
		t.Fatal("no live search frame arrived")
	}

	// Flood the ring until the live run's record is gone, stream intact.
	for i := 0; i < 2; i++ {
		s.Ledger().Add(&RunRecord{ID: fmt.Sprintf("r-pad-%06d", i), Start: time.Now(), Status: "done"})
	}
	if _, ok := s.Ledger().Get(runID); ok {
		t.Fatal("flood did not evict the live run's record")
	}

	// End the run: the sampler stops, the subscriber channel closes, and
	// the handler goes looking for a record that no longer exists.
	s.Close()
	var got []doneEvent
	for d := range dones {
		got = append(got, d)
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("done frames = %d (%+v), want exactly 1", len(got), got)
	}
	if got[0].Status != "evicted" || got[0].RunID != runID {
		t.Errorf("terminal frame = %+v, want status evicted for %s", got[0], runID)
	}
}

// TestAliasRebindMidStreamStaysPinned: a stream opened through a
// client_ref resolves the alias exactly once. Rebinding the ref to a
// newer run must hand new streams to the new run, clear the superseded
// record's claim on the ref, and leave the established stream pinned —
// its done frame carries the original run's ID.
func TestAliasRebindMidStreamStaysPinned(t *testing.T) {
	const ref = "shared-ref"
	s, client := newTestServer(t, Config{Workers: 2, SampleInterval: 2 * time.Millisecond})
	runA := startLongRun(t, s, client.base, ref)

	// The alias binds after decode; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if id, ok := s.Ledger().Resolve(ref); ok && id == runA {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alias %s never bound to %s", ref, runA)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gotSearch, dones, errc := collectStream(ctx, client, ref)
	select {
	case <-gotSearch:
	case <-time.After(10 * time.Second):
		t.Fatal("no live search frame arrived")
	}

	// A second request re-mints the ref; it completes immediately.
	respB, err := client.Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n",
		Mode:    cache.ModeRA, ClientRef: ref,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s.Ledger().Resolve(ref); !ok || id != respB.RunID {
		t.Errorf("after rebind, %s resolves to %q (ok=%v), want %s", ref, id, ok, respB.RunID)
	}
	if rec, ok := s.Ledger().Get(runA); !ok || rec.ClientRef != "" {
		t.Errorf("superseded record still claims the ref: ClientRef=%q ok=%v", rec.ClientRef, ok)
	}

	// End run A: the established stream must report run A, not run B.
	s.Close()
	var got []doneEvent
	for d := range dones {
		got = append(got, d)
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(got) != 1 || got[0].RunID != runA {
		t.Fatalf("pinned stream done frames = %+v, want one frame for %s", got, runA)
	}

	// A stream opened after the rebind replays run B.
	var d doneEvent
	if err := client.StreamEvents(context.Background(), ref, func(event string, data []byte) error {
		if event == "done" {
			return json.Unmarshal(data, &d)
		}
		return nil
	}); err != nil {
		t.Fatalf("post-rebind stream: %v", err)
	}
	if d.RunID != respB.RunID {
		t.Errorf("post-rebind stream done = %+v, want run %s", d, respB.RunID)
	}
}

// TestAliasRebindNewestRunWins pins the Alias tie-break down at the
// ledger: concurrent requests sharing a ref deliver their Alias calls
// in arbitrary order, so the binding must go to the newest run by start
// time, not the latest caller; superseded and abandoned refs are
// cleaned out of both the record and the alias table.
func TestAliasRebindNewestRunWins(t *testing.T) {
	l := NewLedger(4, nil)
	t0 := time.Now()
	a := &RunRecord{ID: "r-t-000001", Start: t0, Status: "done"}
	b := &RunRecord{ID: "r-t-000002", Start: t0.Add(time.Second), Status: "done"}
	l.Add(a)
	l.Add(b)

	// In-order rebind: the newer run takes the ref, the older record's
	// claim is cleared.
	l.Alias("x", a.ID)
	l.Alias("x", b.ID)
	if id, ok := l.Resolve("x"); !ok || id != b.ID {
		t.Errorf("x resolves to %q (ok=%v), want %s", id, ok, b.ID)
	}
	if rec, _ := l.Get(a.ID); rec.ClientRef != "" {
		t.Errorf("superseded record kept ClientRef %q", rec.ClientRef)
	}

	// The record abandons its old ref on re-alias: x must not dangle.
	l.Alias("y", b.ID)
	if _, ok := l.Resolve("x"); ok {
		t.Error("abandoned ref x still resolves")
	}

	// Out-of-order: the older run's late Alias call must not steal the
	// ref back.
	l.Alias("y", a.ID)
	if id, ok := l.Resolve("y"); !ok || id != b.ID {
		t.Errorf("after late rebind, y resolves to %q (ok=%v), want %s", id, ok, b.ID)
	}
	if rec, _ := l.Get(a.ID); rec.ClientRef != "" {
		t.Errorf("refused Alias still stamped ClientRef %q", rec.ClientRef)
	}

	// Eviction of both records leaves no alias behind.
	for i := 0; i < 4; i++ {
		l.Add(&RunRecord{ID: fmt.Sprintf("r-t-1%05d", i), Start: time.Now(), Status: "done"})
	}
	if _, ok := l.Resolve("y"); ok {
		t.Error("evicted run's alias still resolves")
	}
	l.mu.Lock()
	leaked := len(l.aliases)
	l.mu.Unlock()
	if leaked != 0 {
		t.Errorf("alias table leaked %d entries", leaked)
	}
}

// TestLedgerAliasConcurrent hammers Alias/Resolve/Add/Get over a small
// ring under the race detector, then checks the alias invariants at
// quiescence: every alias entry names a retained record whose
// ClientRef agrees, and no record claims a ref the table has forgotten.
func TestLedgerAliasConcurrent(t *testing.T) {
	l := NewLedger(8, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref := fmt.Sprintf("ref-%d", w%3)
			for i := 0; i < 100; i++ {
				id := l.Add(&RunRecord{Start: time.Now(), Status: "running"})
				l.Alias(ref, id)
				l.Resolve(ref)
				l.Get(id)
				l.Update(id, func(r *RunRecord) { r.Status = "done" })
			}
		}(w)
	}
	wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	for ref, id := range l.aliases {
		rec, ok := l.byID[id]
		if !ok {
			t.Errorf("alias %s dangles: %s evicted", ref, id)
			continue
		}
		if rec.ClientRef != ref {
			t.Errorf("alias %s -> %s but record claims %q", ref, id, rec.ClientRef)
		}
	}
	for _, rec := range l.byID {
		if rec.ClientRef != "" && l.aliases[rec.ClientRef] != rec.ID {
			t.Errorf("record %s claims %q but the table maps it to %q", rec.ID, rec.ClientRef, l.aliases[rec.ClientRef])
		}
	}
}

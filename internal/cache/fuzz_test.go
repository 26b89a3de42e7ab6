package cache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskRecord writes arbitrary bytes as a disk store, opens it, and
// asks the cache a fixed question. Opening must never fail or panic on
// content, and a store line must never answer unless it loaded as a
// valid record: a malformed, stale or foreign line costs a miss (and a
// DiskCorrupt/DiskStale count), never a verdict. Seeds are in
// testdata/fuzz/FuzzDiskRecord: a header line and one valid record
// answering the fixed request.
func FuzzDiskRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, store []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, store, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{DiskPath: path, Version: "v-fuzz"})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// Close the file without Close's fsync: this target tests
		// loading, and an fsync per input holds the fuzzer to a few
		// dozen inputs a second.
		defer c.disk.f.Close()
		st := c.Stats()
		// Each non-empty line counts at most once, plus once for an
		// unreadable tail.
		var lines int64
		for _, l := range bytes.Split(store, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				lines++
			}
		}
		if st.DiskLoaded+st.DiskCorrupt+st.DiskStale > lines+1 {
			t.Fatalf("%d lines counted as %d loaded, %d corrupt, %d stale",
				lines, st.DiskLoaded, st.DiskCorrupt, st.DiskStale)
		}
		calls := 0
		out, err := c.Do(context.Background(), Request{Prog: keyProg("p", 1), Mode: ModeVBMC, K: 2},
			fakeRun(Outcome{Verdict: VerdictInconclusive}, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if calls == 1 {
			return // a miss
		}
		if calls != 0 || !out.Cached {
			t.Fatalf("%d runs, outcome %+v", calls, out)
		}
		if st.DiskLoaded == 0 {
			t.Fatalf("answered %+v with no record loaded", out)
		}
		if !cacheable(out) {
			t.Fatalf("answered with an untrustworthy outcome %+v", out)
		}
	})
}

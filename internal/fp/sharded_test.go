package fp

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// randKeys returns n random keys of varying length from a seeded
// source, with deliberate duplicates (every fourth key repeats an
// earlier one) so revisit paths are exercised.
func randKeys(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 && i > 0 {
			keys = append(keys, keys[rng.Intn(i)])
			continue
		}
		k := make([]byte, 8+rng.Intn(40))
		rng.Read(k)
		keys = append(keys, k)
	}
	return keys
}

// TestShardedSetSerialParity drives the same random key sequence
// through Set (at constant budget) and ShardedSet in both modes and at
// one and many shards: every Visit answer, the final Len and the final
// ApproxBytes must agree — the sharding is pure partitioning, never a
// semantic change.
func TestShardedSetSerialParity(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			serial := NewSet(exact)
			sharded := NewShardedSet(exact, workers)
			for _, k := range randKeys(42, 5000) {
				sv := serial.Visit(k, 0)
				pv := sharded.Visit(k)
				if sv != pv {
					t.Fatalf("exact=%v workers=%d: Visit(%x) = %v (sharded) vs %v (serial)", exact, workers, k, pv, sv)
				}
			}
			if serial.Len() != sharded.Len() {
				t.Errorf("exact=%v workers=%d: Len %d (sharded) vs %d (serial)", exact, workers, sharded.Len(), serial.Len())
			}
			if serial.ApproxBytes() != sharded.ApproxBytes() {
				t.Errorf("exact=%v workers=%d: ApproxBytes %d (sharded) vs %d (serial)",
					exact, workers, sharded.ApproxBytes(), serial.ApproxBytes())
			}
		}
	}
}

// TestShardedSetConcurrentInserts has many goroutines hammer one set
// with overlapping key ranges and checks the
// linearizable contract of first-wins visiting: every key is claimed
// by exactly one goroutine (the sum of true answers equals the number
// of distinct keys), and the final occupancy matches a serial replay.
func TestShardedSetConcurrentInserts(t *testing.T) {
	for _, exact := range []bool{false, true} {
		const (
			workers = 8
			keys    = 4096
		)
		set := NewShardedSet(exact, workers)
		wins := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker visits every key, in a worker-specific order.
				var buf [8]byte
				for i := 0; i < keys; i++ {
					k := (i*(2*w+1) + w) % keys
					binary.LittleEndian.PutUint64(buf[:], uint64(k))
					if set.Visit(buf[:]) {
						wins[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, n := range wins {
			total += n
		}
		if total != keys {
			t.Errorf("exact=%v: %d wins across workers, want exactly %d (one per key)", exact, total, keys)
		}
		if set.Len() != keys {
			t.Errorf("exact=%v: Len = %d, want %d", exact, set.Len(), keys)
		}
	}
}

// TestShardedSetProbeZeroAllocs guards the concurrent probe path like
// the serial set's test: encoding is the caller's business, but a
// probe of an existing key must not allocate in either mode.
func TestShardedSetProbeZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	for _, exact := range []bool{false, true} {
		set := NewShardedSet(exact, 4)
		key := []byte("zero-alloc-probe-key")
		set.Visit(key)
		h := Hash64(key)
		allocs := testing.AllocsPerRun(500, func() {
			set.Visit(key)
			set.VisitHash(h, key)
			set.Has(h, key)
		})
		if allocs != 0 {
			t.Errorf("exact=%v: %v allocs per probe, want 0", exact, allocs)
		}
	}
}

// TestShardedSetApproxBytesMonotone checks that ApproxBytes never
// decreases as keys are inserted (entries are only added), in both
// modes, and that duplicate visits do not change the footprint.
func TestShardedSetApproxBytesMonotone(t *testing.T) {
	for _, exact := range []bool{false, true} {
		set := NewShardedSet(exact, 4)
		prev := set.ApproxBytes()
		if prev != 0 {
			t.Fatalf("exact=%v: empty set ApproxBytes = %d, want 0", exact, prev)
		}
		for i, k := range randKeys(11, 2000) {
			set.Visit(k)
			if b := set.ApproxBytes(); b < prev {
				t.Fatalf("exact=%v: ApproxBytes decreased %d -> %d at key %d", exact, prev, b, i)
			} else {
				prev = b
			}
		}
		// Re-visiting everything adds no entries.
		before := set.ApproxBytes()
		for _, k := range randKeys(11, 2000) {
			set.Visit(k)
		}
		if after := set.ApproxBytes(); after != before {
			t.Errorf("exact=%v: duplicate visits changed ApproxBytes %d -> %d", exact, before, after)
		}
	}
}

// TestShardedSetHashAgreement pins VisitHash to Visit: both must use
// Hash64 of the key, or fingerprint-mode probes through the two entry
// points would see different sets.
func TestShardedSetHashAgreement(t *testing.T) {
	set := NewShardedSet(false, 4)
	key := []byte("agreement")
	if !set.VisitHash(Hash64(key), key) {
		t.Fatal("first VisitHash must explore")
	}
	if set.Visit(key) {
		t.Fatal("Visit after VisitHash of the same key must be pruned")
	}
}

// TestShardedSetHasIsReadOnly: Has answers whether a key was visited,
// in both modes, and never records one.
func TestShardedSetHasIsReadOnly(t *testing.T) {
	for _, exact := range []bool{false, true} {
		set := NewShardedSet(exact, 4)
		seen, unseen := []byte("seen"), []byte("unseen")
		set.Visit(seen)
		if !set.Has(Hash64(seen), seen) {
			t.Errorf("exact=%v: Has misses a visited key", exact)
		}
		if set.Has(Hash64(unseen), unseen) {
			t.Errorf("exact=%v: Has reports an unvisited key", exact)
		}
		if set.Len() != 1 || !set.Visit(unseen) {
			t.Errorf("exact=%v: Has recorded the key it probed", exact)
		}
	}
}

package fp

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestHash64MatchesStdlib: Hash64 is FNV-1a 64 exactly, checked against
// hash/fnv on fixed vectors and random byte strings.
func TestHash64MatchesStdlib(t *testing.T) {
	vectors := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("foobar"),
		{0x00},
		{0xFF, 0xFE, 0xFD},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		vectors = append(vectors, b)
	}
	for _, v := range vectors {
		ref := fnv.New64a()
		ref.Write(v)
		if got, want := Hash64(v), ref.Sum64(); got != want {
			t.Errorf("Hash64(%q) = %#x, want %#x", v, got, want)
		}
	}
	if Hash64(nil) != offset64 {
		t.Errorf("empty hash must be the offset basis")
	}
}

// TestExtendContinuesHash64: extending the hash of a prefix byte by
// byte gives the hash of the whole key, at every split point.
func TestExtendContinuesHash64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		for cut := 0; cut <= len(b); cut++ {
			if got, want := Extend(Hash64(b[:cut]), b[cut:]), Hash64(b); got != want {
				t.Fatalf("Extend(Hash64(%q), %q) = %#x, want %#x", b[:cut], b[cut:], got, want)
			}
		}
	}
}

// TestSetBudgetSemantics: a state is re-explored exactly when reached
// with strictly less budget used, in both modes.
func TestSetBudgetSemantics(t *testing.T) {
	for _, exact := range []bool{false, true} {
		s := NewSet(exact)
		if s.Exact() != exact {
			t.Fatalf("Exact() = %v, want %v", s.Exact(), exact)
		}
		key := []byte("state-a")
		if !s.Visit(key, 3) {
			t.Fatalf("exact=%v: first visit must explore", exact)
		}
		if s.Visit(key, 3) {
			t.Errorf("exact=%v: same budget must be pruned", exact)
		}
		if s.Visit(key, 5) {
			t.Errorf("exact=%v: larger budget must be pruned", exact)
		}
		if !s.Visit(key, 1) {
			t.Errorf("exact=%v: smaller budget must re-explore", exact)
		}
		if s.Visit(key, 2) {
			t.Errorf("exact=%v: minimum must have been updated to 1", exact)
		}
		if !s.Visit([]byte("state-b"), 9) {
			t.Errorf("exact=%v: distinct key must explore", exact)
		}
		if s.Len() != 2 {
			t.Errorf("exact=%v: Len = %d, want 2", exact, s.Len())
		}
	}
}

// TestSetKeyBufferReuse: Visit must not retain the caller's buffer —
// mutating it afterwards must not corrupt the set (the exact mode's
// map conversion copies).
func TestSetKeyBufferReuse(t *testing.T) {
	for _, exact := range []bool{false, true} {
		s := NewSet(exact)
		buf := []byte("first")
		s.Visit(buf, 0)
		copy(buf, "xxxxx")
		if s.Visit([]byte("first"), 0) {
			t.Errorf("exact=%v: recorded key was corrupted by buffer reuse", exact)
		}
	}
}

// TestSetModeParity: both modes agree on explore/prune decisions over a
// random probe sequence (no fingerprint collisions expected at this
// scale).
func TestSetModeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	exactSet, fpSet := NewSet(true), NewSet(false)
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = make([]byte, 8+rng.Intn(24))
		rng.Read(keys[i])
	}
	for probe := 0; probe < 5000; probe++ {
		k := keys[rng.Intn(len(keys))]
		budget := rng.Intn(6)
		a, b := exactSet.Visit(k, budget), fpSet.Visit(k, budget)
		if a != b {
			t.Fatalf("probe %d: exact=%v fingerprint=%v", probe, a, b)
		}
	}
	if exactSet.Len() != fpSet.Len() {
		t.Errorf("Len: exact=%d fingerprint=%d", exactSet.Len(), fpSet.Len())
	}
}

// TestVisitZeroAllocs: a re-probe of a visited state allocates nothing,
// in either mode (the exact mode's lookup uses the compiler's
// non-allocating map[string(bytes)] form).
func TestVisitZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	for _, exact := range []bool{false, true} {
		s := NewSet(exact)
		key := make([]byte, 64)
		for i := range key {
			key[i] = byte(i)
		}
		s.Visit(key, 1)
		allocs := testing.AllocsPerRun(200, func() {
			s.Visit(key, 1)
		})
		if allocs != 0 {
			t.Errorf("exact=%v: %v allocs per visited-state probe, want 0", exact, allocs)
		}
	}
}

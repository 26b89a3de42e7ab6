package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"ravbmc/internal/lang"
)

// keySchema versions the key derivation itself; bump on any change to
// the byte layout below or to the canonical printer's contract, so
// entries written under an older derivation can never alias.
const keySchema = "ravbmc.cache/v1"

// Verification modes a cached entry can hold. The bounded pair (vbmc,
// rak) decides K-bounded reachability and participates in monotone-K
// subsumption; the rest are exact for the unrolled program (or, for
// portfolio, a cross-checked combination) and are only ever answered
// by exact key hits.
const (
	ModeVBMC      = "vbmc"      // translate-and-check pipeline (core.Run)
	ModeRAK       = "rak"       // RA explorer with ViewBound=K
	ModeRA        = "ra"        // exhaustive RA explorer
	ModeTracer    = "tracer"    // stateless baseline
	ModeCDSC      = "cdsc"      // stateless baseline
	ModeRCMC      = "rcmc"      // stateless baseline
	ModePortfolio = "portfolio" // differential portfolio (internal/diff)
)

// Modes lists every valid mode, in display order.
func Modes() []string {
	return []string{ModeVBMC, ModeRAK, ModeRA, ModeTracer, ModeCDSC, ModeRCMC, ModePortfolio}
}

// ValidMode reports whether m names a verification mode.
func ValidMode(m string) bool {
	switch m {
	case ModeVBMC, ModeRAK, ModeRA, ModeTracer, ModeCDSC, ModeRCMC, ModePortfolio:
		return true
	}
	return false
}

// subsumable reports whether the mode's verdicts are monotone in K:
// every behaviour with at most k view switches also has at most k+1,
// so SAFE at K'≥k answers k and a (validated) UNSAFE at K'≤k answers
// k. Only the two K-bounded deciders qualify.
func subsumable(mode string) bool { return mode == ModeVBMC || mode == ModeRAK }

// Request identifies one verification query: the program plus every
// parameter that can change the verdict. Parameters that only affect
// resource usage, not the decided problem (deadlines, pool widths,
// observability), are deliberately absent — they must not fragment the
// cache.
type Request struct {
	// Prog is the parsed source program. The cache keys on its
	// canonical form (lang.Canon), so surface variation — whitespace,
	// labels, names — does not fragment entries.
	Prog *lang.Program
	// Mode selects the engine (Mode* constants).
	Mode string
	// K is the view-switch budget (vbmc, rak, portfolio).
	K int
	// Unroll is the loop bound L; required for programs with loops.
	Unroll int
	// MaxContexts overrides the SC backend's context bound (vbmc only;
	// 0 = the paper's K+n default).
	MaxContexts int
	// MaxStates caps the stateful searches; for the stateless baselines
	// it caps transitions instead. A capped run that concludes anyway
	// is still exact, but the cap is part of the key: a SAFE under a
	// cap and a SAFE without one are the same verdict reached under
	// different ground rules, and subsumption must not mix them.
	MaxStates int
	// ExactDedup selects exact visited-set keys over fingerprints in
	// the stateful engines. Part of the key: fingerprint collisions are
	// the one (astronomically unlikely) way a stateful verdict can be
	// wrong, so collision-paranoid runs must not be answered from
	// fingerprinted entries.
	ExactDedup bool
}

// normalized zeroes the fields the mode ignores, so requests differing
// only in irrelevant parameters share an entry.
func (r Request) normalized() Request {
	switch r.Mode {
	case ModeRA, ModeTracer, ModeCDSC, ModeRCMC:
		r.K = 0
		r.MaxContexts = 0
	case ModeRAK:
		r.MaxContexts = 0
	case ModePortfolio:
		r.MaxContexts = 0
		r.ExactDedup = false
	}
	if r.Mode == ModeTracer || r.Mode == ModeCDSC || r.Mode == ModeRCMC {
		r.ExactDedup = false
	}
	return r
}

// Digest is a SHA-256 content address.
type Digest [sha256.Size]byte

// Hex returns the lowercase hex encoding.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// ParseDigest decodes a hex digest (the disk store's record keys).
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, err
	}
	if len(b) != len(d) {
		return d, fmt.Errorf("cache: digest is %d bytes, want %d", len(b), len(d))
	}
	copy(d[:], b)
	return d, nil
}

// groupK is the K placeholder in group keys: the group digest
// identifies the family {same program, mode, bounds, version} across
// all K, the domain over which monotone-K subsumption is sound.
const groupK = -1 << 20

// digest derives the content address of a (normalized) request under
// the given toolchain version. When group is true, K is replaced by
// the placeholder, yielding the subsumption-group address.
func digest(canon string, r Request, version string, group bool) Digest {
	h := sha256.New()
	var num [8]byte
	field := func(s string) {
		binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	n := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	field(keySchema)
	field(version)
	field(r.Mode)
	k := int64(r.K)
	if group {
		k = groupK
	}
	n(k)
	n(int64(r.Unroll))
	n(int64(r.MaxContexts))
	n(int64(r.MaxStates))
	if r.ExactDedup {
		n(1)
	} else {
		n(0)
	}
	field(canon)
	var d Digest
	h.Sum(d[:0])
	return d
}

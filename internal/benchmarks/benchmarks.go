// Package benchmarks generates the mutual-exclusion protocol programs
// the paper evaluates on (Sec. 7): Peterson (generalised to N threads as
// the filter lock), Szymanski, Dekker, simplified Dekker, Burns, Lamport
// bakery, Lamport's fast mutex, and the tbar barrier benchmark — each in
// the paper's versions:
//
//	_0  unfenced: correct under SC, buggy under RA (weak-memory bug)
//	_1  all threads fenced except thread 0 (Table 2)
//	_2  all threads fenced, one-line bug in the first thread (Table 3/5)
//	_3  all threads fenced, one-line bug in the last thread (Table 4)
//	_4  all threads fenced: SAFE (Tables 6-8)
//
// The one-line bug is the same in every protocol: the buggy thread skips
// its final entry gate (its spin flag is initialised to 0 instead of 1),
// which breaks mutual exclusion even under SC.
//
// # Critical-section assertion
//
// Mutual exclusion is encoded as in the SV-COMP benchmarks the paper
// uses: inside the critical section, thread i writes i+1 to the shared
// variable cs, reads cs back and asserts it still holds i+1, then clears
// it. Under RA a thread can read, above its own write, only writes
// modification-order-later — which exist exactly when another thread is
// in the critical section concurrently.
package benchmarks

import (
	"fmt"
	"regexp"
	"strconv"

	"ravbmc/internal/lang"
)

// Version selects the fencing/bug variant of a protocol.
type Version int

// Protocol versions (the paper's _0 .. _4 suffixes).
const (
	Unfenced       Version = iota // _0
	FencedButFirst                // _1
	BugFirstThread                // _2
	BugLastThread                 // _3
	Fenced                        // _4
)

// Suffix returns the paper's version suffix.
func (v Version) Suffix() string { return fmt.Sprintf("_%d", int(v)) }

// gen carries per-protocol generation context.
type gen struct {
	prog *lang.Program
	n    int
	ver  Version
}

func newGen(name string, n int, ver Version) *gen {
	g := &gen{n: n, ver: ver}
	g.prog = lang.NewProgram(fmt.Sprintf("%s%s(%d)", name, ver.Suffix(), n), "cs")
	return g
}

// fenced reports whether thread i carries fences in this version.
func (g *gen) fenced(i int) bool {
	switch g.ver {
	case Unfenced:
		return false
	case FencedButFirst:
		return i != 0
	default:
		return true
	}
}

// buggy reports whether thread i carries the one-line bug.
func (g *gen) buggy(i int) bool {
	switch g.ver {
	case BugFirstThread:
		return i == 0
	case BugLastThread:
		return i == g.n-1
	default:
		return false
	}
}

// f emits a fence when thread i is fenced.
func (g *gen) f(pr *lang.Proc, i int) {
	if g.fenced(i) {
		pr.Add(lang.FenceS())
	}
}

// write emits x = c followed by a fence for fenced threads.
func (g *gen) write(pr *lang.Proc, i int, x string, c lang.Value) {
	pr.Add(lang.WriteC(x, c))
	g.f(pr, i)
}

// critical emits the critical section with the mutual-exclusion
// assertion for thread i.
func (g *gen) critical(pr *lang.Proc, i int) {
	pr.AddReg("csr")
	pr.Add(
		lang.WriteC("cs", lang.Value(i+1)),
		lang.ReadS("csr", "cs"),
		lang.AssertS(lang.Eq(lang.R("csr"), lang.C(lang.Value(i+1)))),
		lang.WriteC("cs", 0),
	)
}

// spinUntil emits a spin loop for thread i:
//
//	$spin = init
//	while $spin == 1 do <round>; if <exitCond> then $spin = 0 fi done
//
// round must load whatever exitCond mentions; init is 0 for the buggy
// gate (the loop is skipped entirely — the paper's one-line change).
func (g *gen) spinUntil(pr *lang.Proc, i int, skip bool, round []lang.Stmt, exitCond lang.Expr) {
	pr.AddReg("spin")
	init := lang.Value(1)
	if skip {
		init = 0
	}
	body := make([]lang.Stmt, 0, len(round)+2)
	if g.fenced(i) {
		body = append(body, lang.FenceS())
	}
	body = append(body, round...)
	body = append(body, lang.IfS(exitCond, lang.AssignS("spin", lang.C(0))))
	pr.Add(
		lang.AssignS("spin", lang.C(init)),
		lang.WhileS(lang.Eq(lang.R("spin"), lang.C(1)), body...),
	)
}

// spinPlain is spinUntil without the per-iteration fence, for protocols
// whose fenced versions synchronise through RMWs on protocol variables
// instead of explicit fences.
func (g *gen) spinPlain(pr *lang.Proc, skip bool, round []lang.Stmt, exitCond lang.Expr) {
	pr.AddReg("spin")
	init := lang.Value(1)
	if skip {
		init = 0
	}
	body := append(append([]lang.Stmt{}, round...),
		lang.IfS(exitCond, lang.AssignS("spin", lang.C(0))))
	pr.Add(
		lang.AssignS("spin", lang.C(init)),
		lang.WhileS(lang.Eq(lang.R("spin"), lang.C(1)), body...),
	)
}

// namePattern parses table names like "peterson_1(6)", "szymanski_0",
// "tbar(3)", "bakery".
var namePattern = regexp.MustCompile(`^([a-z_]+?)(?:_(\d))?(?:\((\d+)\))?$`)

// maxThreads bounds the thread count ByName builds. The paper's tables
// go up to 10. Names reach ByName from vbmcd request bodies, and the
// generators grow faster than linearly in the count: building
// bakery(3000) ran an 8 GB machine out of memory before any request
// deadline could apply.
const maxThreads = 64

// ByName builds the benchmark program for a paper-style name. The
// version suffix defaults to _0 and the thread count to 2, matching the
// paper's conventions.
func ByName(name string) (*lang.Program, error) {
	m := namePattern.FindStringSubmatch(name)
	if m == nil {
		return nil, fmt.Errorf("benchmarks: cannot parse benchmark name %q", name)
	}
	proto := m[1]
	ver := Unfenced
	if m[2] != "" {
		v, _ := strconv.Atoi(m[2])
		if v < 0 || v > int(Fenced) {
			return nil, fmt.Errorf("benchmarks: unknown version _%d in %q", v, name)
		}
		ver = Version(v)
	}
	n := 2
	if m[3] != "" {
		n, _ = strconv.Atoi(m[3])
	}
	if n < 2 {
		return nil, fmt.Errorf("benchmarks: %q needs at least 2 threads", name)
	}
	if n > maxThreads {
		return nil, fmt.Errorf("benchmarks: %q has more than %d threads", name, maxThreads)
	}
	switch proto {
	case "peterson":
		return Peterson(n, ver), nil
	case "filter":
		return Filter(n, ver), nil
	case "szymanski":
		return Szymanski(n, ver), nil
	case "dekker":
		if n != 2 {
			return nil, fmt.Errorf("benchmarks: dekker is a 2-thread protocol")
		}
		return Dekker(ver), nil
	case "sim_dekker":
		if n != 2 {
			return nil, fmt.Errorf("benchmarks: sim_dekker is a 2-thread protocol")
		}
		return SimDekker(ver), nil
	case "burns":
		return Burns(n, ver), nil
	case "bakery":
		return Bakery(n, ver), nil
	case "lamport":
		return Lamport(n, ver), nil
	case "tbar":
		return TBar(n, ver), nil
	}
	return nil, fmt.Errorf("benchmarks: unknown protocol %q", proto)
}

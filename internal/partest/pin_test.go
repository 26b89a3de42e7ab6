package partest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/ra"
	"ravbmc/internal/sc"
	"ravbmc/internal/trace"
)

// pinRow is one pinned search result: the counts and the SHA-256 of
// the witness JSONL ("" when the run has no witness). The RA rows and
// the witness bytes were recorded on the serial explicit-stack engines
// that the one-worker pool replaced; the SC counts were re-recorded
// when the search key started masking every terminated process's
// registers, and the core.Run counts when the probe schedule went flat
// and resumable (the Table 1 witnesses did not move: each row's hit
// rung, tier 2 at context bound 2, is the same fresh search).
type pinRow struct {
	name                string
	states, transitions int
	witness             string
}

// witnessSum hashes the JSONL export of the given traces, in order; a
// nil trace contributes nothing. The toolchain stamp is fixed so the
// sum depends on the events alone.
func witnessSum(traces ...*trace.Trace) string {
	var buf bytes.Buffer
	for _, t := range traces {
		if t == nil {
			continue
		}
		if err := t.WriteJSONL(&buf, trace.Meta{Toolchain: "pin"}); err != nil {
			panic(err) // writing to a bytes.Buffer cannot fail
		}
	}
	if buf.Len() == 0 {
		return ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// corePin runs one benchmark through core.Run at K=2 and unrolling
// bound l: the probe ladder, the final search and the lifted witness.
func corePin(t *testing.T, name string, l int) pinRow {
	t.Helper()
	p, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{K: 2, Unroll: l})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pinRow{name, res.States, res.Transitions, witnessSum(res.Trace, res.Witness)}
}

// classicCensusPin checks the K=2 translation of one classic litmus
// shape with the SC backend in census mode under the paper's K+n
// context bound: every violation is counted and the witness is the
// minimal-fingerprint one, rebuilt by replay.
func classicCensusPin(t *testing.T, tc litmus.Test) pinRow {
	t.Helper()
	const k = 2
	tp, err := core.Translate(tc.Prog, k)
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	cp, err := lang.Compile(tp)
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	res := sc.NewSystem(cp).Check(sc.Options{MaxContexts: k + len(cp.Procs), CensusViolations: true})
	return pinRow{tc.Name, res.States, res.Transitions, witnessSum(res.Trace)}
}

// classicPin explores one classic litmus shape with the RA explorer in
// stop mode at view bound 2.
func classicPin(t *testing.T, tc litmus.Test) pinRow {
	t.Helper()
	cp, err := compileCase(Case{Name: tc.Name, Prog: tc.Prog})
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	res := ra.NewSystem(cp).Explore(ra.Options{ViewBound: 2, StopOnViolation: true})
	return pinRow{tc.Name, res.States, res.Transitions, witnessSum(res.Trace)}
}

var table1Pins = []pinRow{
	{"bakery", 11391, 11525, "fa8188fb14a9ecd141e8e3128548d08f15cfb2a12cb44c542fe7fcace8e8e601"},
	{"burns", 2812, 2914, "6dc891dea80e051967fb91c8024fe3a48ac41d6e4d07eea99c74ce6d0dcf8730"},
	{"dekker", 3329, 3488, "1b0cc1b215a0d61a8d9fd95245de75ad2137fdae77f7c9e4279742699fbf77b9"},
	{"lamport", 4935, 5034, "47528ab6ce49ecce13229c9d94ea37a045ece9d450d2fc10730d2ceb979cb615"},
	{"peterson_0", 843, 896, "8a6406c5df13150829bd1bee63183620ec4577d5621bfa1bbbca2345e6416cca"},
	{"peterson_0(3)", 25974, 26345, "c9e1f601f2f9cb09246f264a83fac842aaba965c0b02aba6b7cfdb423922bc22"},
	{"sim_dekker", 788, 819, "bdb51d4bf748bf77c6833a96773f50b0dba46fc0d0a70a1784ea2cead2cfa596"},
	{"szymanski_0", 10853, 11757, "f32961519d5a5710b36861888f512fc9f31c5ed7d6436295d0496cc2018cf9b0"},
}

// proofPins are the SAFE rows of the benchmark's proofs workload at
// K=2: tbar_4 at L=1/2/4, tbar_4(3) and peterson_4(2) at L=1, each
// the sum over every rung of the flat, resumable probe schedule, whose
// rungs above the first visit each configuration once, at its lowest
// context count.
var proofPins = []struct {
	l   int
	pin pinRow
}{
	{1, pinRow{"tbar_4", 467, 700, ""}},
	{2, pinRow{"tbar_4", 927, 1512, ""}},
	{4, pinRow{"tbar_4", 2471, 4146, ""}},
	{1, pinRow{"tbar_4(3)", 3241, 6357, ""}},
	{1, pinRow{"peterson_4(2)", 97537, 165440, ""}},
}

// classicCensusPins are classicCensusPin's results, in litmus.Classic
// order. They hold the replayed witnesses to the bytes the search
// recorded while it still built trace events on every macro step; RWC's
// witness moved with the search key, whose fingerprint orders census
// witnesses.
var classicCensusPins = []pinRow{
	{"MP", 122, 122, ""},
	{"MP-rev", 120, 125, "c9a8075d45fbf18c7574e9192a50b0a9a59a20cc3c73a039d5abcdfb84e9f7e5"},
	{"SB-half", 77, 128, "bb70e38bb0e381d702940a97c31510a171400066606aec14646a0bfc3e85c0e5"},
	{"SB+fences", 17561, 30089, ""},
	{"LB-half", 88, 90, "e7df1b85e45966b1367c0e75d8b61ef30a24a29c599953a4112d33a91a13e83a"},
	{"LB", 2221, 3220, ""},
	{"CoRR", 207, 238, ""},
	{"WRC", 122, 153, ""},
	{"RWC", 471, 696, "a4be88d67a0f442465599dee3837628c212d3601221af5d3b1f88ae8aea18e3b"},
	{"IRIW", 2767, 5315, ""},
	{"CAS-excl", 157, 156, ""},
	{"2+2W", 7564, 10134, "c70f2e777ae84395762213b14eda4171630c8abb7b3d51a28713fa6cf7a9851a"},
	{"S-coh", 833, 1244, ""},
	{"MP+cas", 36, 35, ""},
	{"CAS-chain", 19, 21, "1588bed3b2bc8d8c9c2fe088ec236bed71d06df59e45836f772842f8c7d02716"},
	{"SB+1fence", 34103, 62624, "2822ab66e5597c1fb4f0d8f4f6be7f1d73bc5738cf56e303d931d67546f64966"},
	{"CoWR", 114, 124, ""},
	{"2F-SB", 17561, 30089, ""},
}

var classicPins = []pinRow{
	{"MP", 18, 26, ""},
	{"MP-rev", 7, 11, "9cb4d117b54f4804d2922f38ad2a99a6294c74f32d8045efdf102475868ee0e8"},
	{"SB-half", 3, 5, "21c8338750c8b2a24fc33d3d374c31efd1da6a6e7d331befde04ed70480e5229"},
	{"SB+fences", 197, 430, ""},
	{"LB-half", 8, 10, "021cb532e3d644b7bba70b70bbb86dde9f6b2c8f553c391a7970dc2dd0faac32"},
	{"LB", 71, 118, ""},
	{"CoRR", 25, 38, ""},
	{"WRC", 50, 92, ""},
	{"RWC", 27, 45, "96b93741ad6d5554d4519b5ba03a08a90f28fd50a37b7a8020741d000e3cae04"},
	{"IRIW", 211, 516, ""},
	{"CAS-excl", 25, 36, ""},
	{"2+2W", 42, 68, "8ed285847a60e8045551995393b8ff1197f4ec8a800b7180047bdd52878b6e68"},
	{"S-coh", 87, 187, ""},
	{"MP+cas", 13, 16, ""},
	{"CAS-chain", 8, 11, "6001287ee4978620968fe6e770d08110352f962671acbf479f2f3fa4f7dfeadb"},
	{"SB+1fence", 18, 37, "658502feb601cb8791f5a7b896f72f617b90444d6f75f2164246b107e3bf209e"},
	{"CoWR", 13, 18, ""},
	{"2F-SB", 197, 430, ""},
}

// TestPinTable1 holds the eight paper Table 1 rows to the counts and
// witness bytes of the serial engine.
func TestPinTable1(t *testing.T) {
	for _, want := range table1Pins {
		want := want
		t.Run(want.name, func(t *testing.T) {
			if testing.Short() && want.states > 100000 {
				t.Skip("large row; run without -short")
			}
			t.Parallel()
			if got := corePin(t, want.name, 2); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		})
	}
}

// TestPinProofs holds the proofs workload's SAFE rows, the exhaustive
// searches the SC backend spends its time on, to their counts.
func TestPinProofs(t *testing.T) {
	for _, row := range proofPins {
		want := row.pin
		t.Run(fmt.Sprintf("%s/L=%d", want.name, row.l), func(t *testing.T) {
			if testing.Short() && want.states > 100000 {
				t.Skip("large row; run without -short")
			}
			t.Parallel()
			if got := corePin(t, want.name, row.l); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		})
	}
}

// TestPinClassicsSCCensus holds the census-mode SC check of every
// classic's K=2 translation to its counts and witness bytes.
func TestPinClassicsSCCensus(t *testing.T) {
	classics := litmus.Classic()
	if len(classics) != len(classicCensusPins) {
		t.Fatalf("%d classics, %d pins", len(classics), len(classicCensusPins))
	}
	for i, tc := range classics {
		if got := classicCensusPin(t, tc); got != classicCensusPins[i] {
			t.Errorf("got %+v, want %+v", got, classicCensusPins[i])
		}
	}
}

// TestPinClassicsRAStop holds stop-mode RA exploration of every classic
// litmus shape to the counts and witness bytes of the serial engine.
func TestPinClassicsRAStop(t *testing.T) {
	classics := litmus.Classic()
	if len(classics) != len(classicPins) {
		t.Fatalf("%d classics, %d pins", len(classics), len(classicPins))
	}
	for i, tc := range classics {
		if got := classicPin(t, tc); got != classicPins[i] {
			t.Errorf("got %+v, want %+v", got, classicPins[i])
		}
	}
}

package parser_test

import (
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/parser"
)

// FuzzParseRoundTrip holds the parser and the printers to their
// contract on arbitrary input: bytes that do not parse yield an error,
// never a panic; a program that parses prints to a form that re-parses
// and reprints identically; and the canonical form of that program is
// a fixed point of parse∘Canon, which the content-addressed cache key
// relies on. Seeds are the classic litmus shapes and the programs of
// Tables 1 and 6–8, as printed and in canonical form.
func FuzzParseRoundTrip(f *testing.F) {
	for _, tc := range litmus.Classic() {
		f.Add(tc.Prog.String())
		f.Add(lang.Canon(tc.Prog))
	}
	for _, name := range []string{
		"bakery", "burns", "dekker", "lamport", "peterson_0", "peterson_0(3)", "sim_dekker", "szymanski_0",
		"bakery_4", "lamport_4", "tbar_4", "tbar_4(3)", "peterson_4(2)", "peterson_4(3)",
	} {
		p, err := benchmarks.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.String())
		f.Add(lang.Canon(lang.EnsureLabels(lang.Unroll(p, 1))))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		q, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\n%s", err, printed)
		}
		if again := q.String(); again != printed {
			t.Fatalf("reprint differs:\n--- first\n%s\n--- second\n%s", printed, again)
		}
		c := lang.Canon(q)
		r, err := parser.Parse(c)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, c)
		}
		if c2 := lang.Canon(r); c2 != c {
			t.Fatalf("Canon is not a fixed point:\n--- first\n%s\n--- second\n%s", c, c2)
		}
	})
}

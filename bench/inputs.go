package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
	"unicode"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/ra"
)

// Query is one verification a workload asks for: a program, its bounds
// and the reference verdict the verifier must return.
type Query struct {
	Name string
	// Prog is never handed to the code under test; every run works on
	// a clone.
	Prog *lang.Program
	// The service is sent the paper benchmark's name when Bench is set,
	// else the program text.
	Bench  string
	Text   string
	K, L   int
	Unsafe bool // reference verdict
	// Direct queries are also searched directly at the full context
	// bound in traced runs, to split the probe ladder's work from the
	// search it guards.
	Direct bool
}

// Inputs are the queries of one workload, generated from its seed.
type Inputs struct {
	Queries []Query
	// Warmup runs once per set-up before anything is timed (in-process
	// workloads only).
	Warmup *Query
	// OracleSeconds is the time the RA explorer spent deciding the
	// references.
	OracleSeconds float64
}

// Sizes of the generated workloads; Toy shrinks them for tests.
type sizes struct {
	litmusUnsafe, litmusSafe, litmusClassic int
	poolUnsafe, poolSafe, requests          int
}

var (
	fullSizes = sizes{litmusUnsafe: 460, litmusSafe: 40, litmusClassic: -1,
		poolUnsafe: 140, poolSafe: 10, requests: 1000}
	toySizes = sizes{litmusUnsafe: 8, litmusSafe: 2, litmusClassic: 2,
		poolUnsafe: 12, poolSafe: 2, requests: 40}
)

// reference decides prog at view bound k with the K-bounded RA
// explorer, an engine independent of the translation under test; it
// reports whether an assertion can fail.
func reference(prog *lang.Program, k, l int, oracle *float64) (bool, error) {
	start := time.Now()
	defer func() { *oracle += time.Since(start).Seconds() }()
	src := prog
	if lang.MaxLoopDepth(prog) > 0 {
		src = lang.Unroll(prog, l)
	}
	cp, err := lang.Compile(src)
	if err != nil {
		return false, fmt.Errorf("reference for %s: %w", prog.Name, err)
	}
	res := ra.NewSystem(cp).Explore(ra.Options{ViewBound: k, StopOnViolation: true})
	if !res.Violation && !res.Exhausted {
		return false, fmt.Errorf("reference for %s: RA explorer did not finish", prog.Name)
	}
	return res.Violation, nil
}

// row is one line of a paper table.
type row struct {
	bench  string
	l      int
	direct bool
}

// Paper Table 1 (unfenced protocols, UNSAFE, K=2 L=2). lamport's direct
// full-bound search takes a minute, so it is the one row left out of
// the ladder split.
var bugRows = []row{
	{"bakery", 2, true}, {"burns", 2, true}, {"dekker", 2, true},
	{"lamport", 2, false}, {"peterson_0", 2, true}, {"peterson_0(3)", 2, true},
	{"sim_dekker", 2, true}, {"szymanski_0", 2, true},
}

// SAFE rows of paper Tables 6-8 at K=2. peterson_4(2) runs at L=1
// only: at L=2 it adds 7 s of the same search to every pass, and three
// passes would no longer fit a run.
var proofRows = []row{
	{"tbar_4", 1, true}, {"tbar_4", 2, true}, {"tbar_4", 4, true},
	{"tbar_4(3)", 1, true}, {"peterson_4(2)", 1, true},
}

// tableInputs builds the rows in the order the seed picks. The
// reference is the paper's verdict; the RA explorer must agree with it.
func tableInputs(rows []row, warm row, unsafe bool, seed int64) (*Inputs, error) {
	in := &Inputs{}
	build := func(r row) (Query, error) {
		prog, err := benchmarks.ByName(r.bench)
		if err != nil {
			return Query{}, err
		}
		q := Query{Name: fmt.Sprintf("%s L=%d", r.bench, r.l), Prog: prog, Bench: r.bench,
			K: 2, L: r.l, Unsafe: unsafe, Direct: r.direct}
		got, err := reference(prog, q.K, q.L, &in.OracleSeconds)
		if err != nil {
			return Query{}, err
		}
		if got != unsafe {
			return Query{}, fmt.Errorf("%s: RA explorer disagrees with the paper's verdict", q.Name)
		}
		return q, nil
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(rows)) {
		q, err := build(rows[i])
		if err != nil {
			return nil, err
		}
		in.Queries = append(in.Queries, q)
	}
	w, err := build(warm)
	if err != nil {
		return nil, err
	}
	in.Warmup = &w
	return in, nil
}

func bugsInputs(seed int64, toy bool) (*Inputs, error) {
	rows := bugRows
	if toy {
		rows = []row{{"sim_dekker", 2, true}, {"peterson_0", 2, true}}
	}
	return tableInputs(rows, row{"sim_dekker", 2, false}, true, seed)
}

func proofsInputs(seed int64, toy bool) (*Inputs, error) {
	rows := proofRows
	if toy {
		rows = proofRows[:1]
	}
	return tableInputs(rows, row{"tbar_4", 1, false}, false, seed)
}

// corpus is the generated litmus corpus with unique names: two-thread
// programs (three statements each) and, unless twoThread is set,
// three-thread programs (two statements each).
func corpus(twoThread bool) []litmus.Test {
	var out []litmus.Test
	for _, t := range litmus.Generated(3) {
		t.Name = "g2/" + t.Name
		out = append(out, t)
	}
	if !twoThread {
		for _, t := range litmus.GeneratedThreads(3, 2) {
			t.Name = "g3/" + t.Name
			out = append(out, t)
		}
	}
	return out
}

// corpusQuery wraps a corpus program as a K=2 query.
func corpusQuery(t litmus.Test, unsafe bool) Query {
	return Query{Name: t.Name, Prog: t.Prog, Text: printable(t.Prog), K: 2, Unsafe: unsafe, Direct: true}
}

// printable prints p under a name the parser accepts (litmus names
// such as "MP-rev" are not identifiers); the name is not part of the
// cache key.
func printable(p *lang.Program) string {
	q := p.Clone()
	q.Name = "t_" + strings.Map(func(r rune) rune {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return r
		}
		return '_'
	}, p.Name)
	return q.String()
}

// safeStride is the step of the walk that picks SAFE programs. It is
// coprime with both corpus sizes, so the walk visits every program.
const safeStride = 61

// pickSafe returns the first n SAFE programs (at K=2) on a fixed stride
// walk of the corpus. The SAFE programs are the search-heavy tail, and
// their cost varies a hundredfold; fixing them keeps that tail
// identical across seeds, which vary the UNSAFE draw and the order.
func pickSafe(all []litmus.Test, n int, in *Inputs) ([]Query, map[int]bool, error) {
	var out []Query
	taken := map[int]bool{}
	for j := 0; j < len(all) && len(out) < n; j++ {
		i := j * safeStride % len(all)
		unsafe, err := reference(all[i].Prog, 2, 0, &in.OracleSeconds)
		if err != nil {
			return nil, nil, err
		}
		if !unsafe {
			out = append(out, corpusQuery(all[i], false))
			taken[i] = true
		}
	}
	if len(out) < n {
		return nil, nil, fmt.Errorf("corpus has only %d SAFE programs", len(out))
	}
	return out, taken, nil
}

// pickUnsafe draws n UNSAFE programs (at K=2) in the seeded order,
// skipping the taken ones.
func pickUnsafe(all []litmus.Test, n int, taken map[int]bool, rng *rand.Rand, in *Inputs) ([]Query, error) {
	var out []Query
	for _, i := range rng.Perm(len(all)) {
		if len(out) == n {
			break
		}
		if taken[i] {
			continue
		}
		unsafe, err := reference(all[i].Prog, 2, 0, &in.OracleSeconds)
		if err != nil {
			return nil, err
		}
		if unsafe {
			out = append(out, corpusQuery(all[i], true))
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("corpus has only %d UNSAFE programs", len(out))
	}
	return out, nil
}

func litmusInputs(seed int64, toy bool) (*Inputs, error) {
	sz := fullSizes
	if toy {
		sz = toySizes
	}
	in := &Inputs{}
	all := corpus(false)
	rng := rand.New(rand.NewSource(seed))
	safe, taken, err := pickSafe(all, sz.litmusSafe, in)
	if err != nil {
		return nil, err
	}
	unsafe, err := pickUnsafe(all, sz.litmusUnsafe, taken, rng, in)
	if err != nil {
		return nil, err
	}
	classic := litmus.Classic()
	if sz.litmusClassic >= 0 {
		classic = classic[:sz.litmusClassic]
	}
	for _, t := range classic {
		got, err := reference(t.Prog, 2, 0, &in.OracleSeconds)
		if err != nil {
			return nil, err
		}
		q := corpusQuery(t, got)
		q.Name = "classic/" + t.Name
		in.Queries = append(in.Queries, q)
	}
	in.Queries = append(in.Queries, unsafe...)
	in.Queries = append(in.Queries, safe...)
	rng.Shuffle(len(in.Queries), func(i, j int) { in.Queries[i], in.Queries[j] = in.Queries[j], in.Queries[i] })
	mp := litmus.Classic()[0]
	got, err := reference(mp.Prog, 2, 0, &in.OracleSeconds)
	if err != nil {
		return nil, err
	}
	w := corpusQuery(mp, got)
	in.Warmup = &w
	return in, nil
}

// safeRank places the i-th SAFE program of the service pool in the
// popularity order: ranks 1, 3, 5, 8, 11, ... are popular enough that
// every SAFE program is requested in a pass.
func safeRank(i int) int { return int(math.Round(math.Pow(float64(i+1), 1.5))) }

// serviceInputs draws the request sequence: a pool of two-thread corpus
// programs ranked by popularity, requests drawn Zipf(1.1) over the
// ranks, and a quarter of the UNSAFE draws asked at K=3, which the
// daemon answers from the K=2 entry by subsumption.
func serviceInputs(seed int64, toy bool) (*Inputs, error) {
	sz := fullSizes
	if toy {
		sz = toySizes
	}
	in := &Inputs{}
	all := corpus(true)
	rng := rand.New(rand.NewSource(seed))
	safe, taken, err := pickSafe(all, sz.poolSafe, in)
	if err != nil {
		return nil, err
	}
	unsafe, err := pickUnsafe(all, sz.poolUnsafe, taken, rng, in)
	if err != nil {
		return nil, err
	}
	pool := make([]*Query, len(safe)+len(unsafe))
	for i := range safe {
		r := safeRank(i)
		if r >= len(pool) || pool[r] != nil {
			return nil, fmt.Errorf("service pool too small for %d SAFE programs", len(safe))
		}
		pool[r] = &safe[i]
	}
	next := 0
	for r := range pool {
		if pool[r] == nil {
			pool[r] = &unsafe[next]
			next++
		}
	}
	atK3 := map[uint64]bool{} // reference verdicts at K=3, by rank
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	for len(in.Queries) < sz.requests {
		rank := z.Uint64()
		q := *pool[rank]
		if q.Unsafe && rng.Intn(4) == 0 {
			got, ok := atK3[rank]
			if !ok {
				if got, err = reference(q.Prog, 3, 0, &in.OracleSeconds); err != nil {
					return nil, err
				}
				atK3[rank] = got
			}
			q.K, q.Unsafe = 3, got
		}
		q.Name = fmt.Sprintf("%s k=%d", q.Name, q.K)
		in.Queries = append(in.Queries, q)
	}
	return in, nil
}

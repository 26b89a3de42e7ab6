package bench

import (
	"reflect"
	"strings"
	"testing"
)

func names(in *Inputs) []string {
	var out []string
	for _, q := range in.Queries {
		out = append(out, q.Name)
	}
	return out
}

func TestSamplerDeterministicPerSeed(t *testing.T) {
	for _, w := range Workloads() {
		gen := workloads[w].inputs
		a, err := gen(1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(1, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names(a), names(b)) {
			t.Errorf("%s: seed 1 gave two different query lists", w)
		}
		if reflect.DeepEqual(names(a), names(c)) {
			t.Errorf("%s: seeds 1 and 2 gave the same query list", w)
		}
	}
}

func TestLitmusStratifiedCounts(t *testing.T) {
	in, err := litmusInputs(3, false)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, q := range in.Queries {
		switch {
		case strings.HasPrefix(q.Name, "classic/"):
			count["classic"]++
		case q.Unsafe:
			count["unsafe"]++
		default:
			count["safe"]++
		}
	}
	want := map[string]int{"classic": 18, "unsafe": 460, "safe": 40}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("counts %v, want %v", count, want)
	}
	if len(distinct(in.Queries)) != len(in.Queries) {
		t.Error("litmus queries repeat a program")
	}
}

func TestServiceRequestMix(t *testing.T) {
	in, err := serviceInputs(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Queries) != 1000 {
		t.Fatalf("%d requests, want 1000", len(in.Queries))
	}
	programs, safe := map[string]bool{}, map[string]bool{}
	k3 := 0
	for _, q := range in.Queries {
		prog := strings.TrimSuffix(strings.TrimSuffix(q.Name, " k=2"), " k=3")
		programs[prog] = true
		if q.K == 3 {
			k3++
			if !q.Unsafe {
				t.Errorf("%s: K=3 is drawn for UNSAFE programs only", q.Name)
			}
		}
		if !q.Unsafe {
			safe[prog] = true
		}
	}
	if len(programs) > 150 {
		t.Errorf("%d distinct programs, pool has 150", len(programs))
	}
	if len(safe) != 10 {
		t.Errorf("%d SAFE programs requested, want all 10 of the pool", len(safe))
	}
	if k3 < 150 || k3 > 300 {
		t.Errorf("%d K=3 requests, want about a quarter of the UNSAFE ones", k3)
	}
}

func TestTableRowsMatchPaperVerdicts(t *testing.T) {
	for _, gen := range []func(int64, bool) (*Inputs, error){bugsInputs, proofsInputs} {
		if _, err := gen(1, false); err != nil {
			t.Error(err)
		}
	}
}

package main

import (
	"strings"
	"testing"
)

func TestCheckRemoteFlags(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want string // flag the error names; "" = accepted
	}{
		{nil, ""},
		{[]string{"remote", "bench", "k", "l", "timeout", "exact-dedup", "contexts", "json", "watch"}, ""},
		{[]string{"remote", "reduce"}, "-reduce"},
		{[]string{"remote", "tmai"}, "-tmai"},
		{[]string{"remote", "workers"}, "-workers"},
		{[]string{"remote", "jobs", "portfolio"}, "-jobs"},
		{[]string{"remote", "bench", "workers", "k"}, "-workers"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkRemoteFlags(set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.set, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want %s rejected", tc.set, tc.want)
		case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want+" "):
			t.Errorf("%v: error %q does not name %s", tc.set, err, tc.want)
		}
	}
}

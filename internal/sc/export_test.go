package sc

// RefStep is one macro-step outcome, as the external tests' reference
// searches see it: the next configuration, whether the step opened a
// new context, and whether it violated an assertion.
type RefStep struct {
	Cfg       Config
	Switch    bool
	Violation bool
}

// RefRoots returns the initial closure's configurations and whether
// any of its outcomes violates an assertion.
func (s *System) RefRoots() (roots []Config, violation bool) {
	for _, oc := range s.initClosure(s.Init(), 0) {
		if oc.violation {
			violation = true
			continue
		}
		roots = append(roots, oc.cfg)
	}
	return roots, violation
}

// RefSteps returns every macro-step outcome of c, over every ready
// process: exactly the transitions the search takes from c when no
// context bound cuts them.
func (s *System) RefSteps(c Config) []RefStep {
	var out []RefStep
	for p := range s.Prog.Procs {
		if s.status(&c, p) != statusReady {
			continue
		}
		for _, oc := range s.macroStep(&c, p, 0, nil, nil) {
			out = append(out, RefStep{Cfg: oc.cfg, Switch: c.cur != p, Violation: oc.violation})
		}
	}
	return out
}

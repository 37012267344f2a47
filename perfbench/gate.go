package main

import (
	"fmt"

	duedate "repro"
)

// answer is one returned solution as the correctness gate sees it: the
// sequence (a delimiter genome on parallel-machine instances), the cost
// the program reported for it, and whether it claimed optimality.
type answer struct {
	seq     []int
	cost    int64
	optimal bool
}

// gate is the benchmark's correctness check. Every answer is re-evaluated
// through duedate.Cost, which rejects anything that is not a permutation
// of the instance's genome and returns the exact cost to compare against
// the reported one. Answers are also checked against the instance's
// proven DP optimum, when one is known: no cost may be below it, and an
// optimality claim must match it exactly. An optimality claim on an
// instance without a proven optimum is a violation too, since only the
// exact layer may make one.
type gate struct {
	violations int
	first      []string // the first few violation messages, for the log
}

const keepViolations = 5

// check reports whether the answer passes, and records it when it does
// not.
func (g *gate) check(inst *instance, label string, a answer) bool {
	if err := verifyAnswer(inst, a); err != nil {
		g.fail(fmt.Sprintf("%s on %s: %v", label, inst.in.Name, err))
		return false
	}
	return true
}

// fail records a violation found outside verifyAnswer (an error return,
// a non-2xx response).
func (g *gate) fail(msg string) {
	g.violations++
	if len(g.first) < keepViolations {
		g.first = append(g.first, msg)
	}
}

func verifyAnswer(inst *instance, a answer) error {
	cost, err := duedate.Cost(inst.in, a.seq)
	if err != nil {
		return fmt.Errorf("returned solution rejected: %w", err)
	}
	if cost != a.cost {
		return fmt.Errorf("reported cost %d, re-evaluated cost %d", a.cost, cost)
	}
	if inst.hasOpt && a.cost < inst.opt {
		return fmt.Errorf("cost %d below the proven optimum %d", a.cost, inst.opt)
	}
	if a.optimal && !inst.hasOpt {
		return fmt.Errorf("optimality claimed on an instance outside the DP's domain")
	}
	if a.optimal && a.cost != inst.opt {
		return fmt.Errorf("optimality claimed for cost %d, proven optimum is %d", a.cost, inst.opt)
	}
	return nil
}

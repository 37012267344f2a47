// Package earlywork implements the exact per-sequence layer of the
// early-work objective (Li, arXiv:2007.12388): maximize the total work
// executed before a common due date on identical parallel machines.
// Internally the repository minimizes the complementary total late work —
// the two differ by the constant ΣP, so minimal late work is maximal
// early work and the solver stack's cost budgets apply unchanged.
//
// On one machine the objective is sequence-independent: jobs run back to
// back from time zero (idle time only pushes work past d), so a machine
// with load W contributes max(0, W−d) late work regardless of order. The
// per-machine optimum is therefore a closed form, and the whole
// difficulty of the problem lives in the assignment of jobs to machines,
// which the metaheuristic layer searches through the delimiter genome
// (see problem.GenomeLen).
package earlywork

import "repro/internal/cdd"

// CostArrays returns the late work of a single machine processing seq
// back to back from time zero: max(0, Σ p[seq] − d). It is generic over
// the sequence index type like the cdd/ucddcp cores, and seq may be any
// subsequence of job ids (a genome segment).
func CostArrays[S cdd.Index](seq []S, p []int64, d int64) int64 {
	var load int64
	for _, j := range seq {
		load += p[j]
	}
	if load > d {
		return load - d
	}
	return 0
}

// FitnessArrays is CostArrays with the abstract operation count the
// simulated GPU converts into cycle charges (one load-accumulate per
// element plus the threshold compare).
func FitnessArrays[S cdd.Index](seq []S, p []int64, d int64) (cost int64, ops int) {
	return CostArrays(seq, p, d), 2*len(seq) + 1
}

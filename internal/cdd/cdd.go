// Package cdd implements the O(n) exact optimizer for a fixed job sequence
// of the Common Due-Date problem, after Lässig, Awasthi and Kramer,
// "Common due-date problem: Linear algorithm for a given job sequence"
// (CSE 2014), as used as the inner layer of the two-layered GPU approach in
// Awasthi et al. (IPDPSW 2016).
//
// For a fixed processing order, the only remaining decision is the start
// time s of the first job (jobs run back to back, no idle time — optimal by
// Cheng–Kahlbacher). The total penalty as a function of s is piecewise
// linear and convex, with breakpoints exactly where some job completes at
// the due date. By Hall–Kubiak–Sethi either s = 0 is optimal or some job
// completes exactly at d, so an event-driven greedy over the breakpoints,
// stopping at the first non-negative right derivative, finds the global
// optimum in O(n).
package cdd

import "repro/internal/problem"

// Result describes the optimal timing of a fixed sequence.
type Result struct {
	// Cost is the minimal total weighted earliness/tardiness penalty.
	Cost int64
	// Start is the optimal start time of the first job.
	Start int64
	// DueJob is the 1-based position of the job completing exactly at the
	// due date in the optimal timing, or 0 when the optimum starts at
	// time zero with no job completing at d.
	DueJob int
}

// OptimizeSequence computes the optimal start time and minimal penalty for
// processing the jobs of in in the order given by seq. seq holds 0-based
// job indices. The sequence is not modified. It is the package's
// Result-returning entry point (schedule materialization and the test
// oracles); the metaheuristics score through core's evaluators, which
// run CostRowArrays over a shared column snapshot.
//
// The algorithm mirrors Section IV-A of the paper:
//
//  1. Schedule all jobs starting at t = 0 with no idle time and locate the
//     boundary position τ = max{i : C_i ≤ d}.
//  2. The right derivative of the cost in the current segment is
//     Σ_{tardy} β − Σ_{strictly early} α. While it is negative, shift the
//     whole schedule right to the next breakpoint (the next job, walking
//     backwards through the sequence, completing exactly at d).
//  3. At a breakpoint where job r completes at d the right derivative is
//     Σ_{i≥r} β_i − Σ_{i<r} α_i (job r turns tardy the moment it passes d).
//     Stop at the first non-negative derivative; convexity makes this the
//     global optimum.
//
// The implementation is the fused single-pass form (OptimizeArrays): the
// weighted aggregates Σα, Σβ, Σα·C, Σβ·C travel with the breakpoint walk,
// so the final cost is O(1) from sums instead of a second sweep.
func OptimizeSequence(in *problem.Instance, seq []int) Result {
	p, alpha, beta := ParamArrays(in)
	cost, start, dueJob, _ := OptimizeArrays(seq, p, alpha, beta, in.D, make([]int64, len(seq)))
	return Result{Cost: cost, Start: start, DueJob: dueJob}
}

// ParamArrays widens the instance's job parameters into the job-indexed
// int64 arrays the array-based evaluation cores consume (the layout the
// GPU pipeline keeps in device memory).
func ParamArrays(in *problem.Instance) (p, alpha, beta []int64) {
	n := in.N()
	p = make([]int64, n)
	alpha = make([]int64, n)
	beta = make([]int64, n)
	for i, j := range in.Jobs {
		p[i], alpha[i], beta[i] = int64(j.P), int64(j.Alpha), int64(j.Beta)
	}
	return p, alpha, beta
}

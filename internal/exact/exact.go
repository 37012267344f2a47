// Package exact provides exact solvers for the due-date problems. They
// serve as optimality oracles for the metaheuristics (and for each other)
// in tests, in the verify subsystem, and behind the EXACT-DP facade
// driver.
//
// Three strategies are implemented:
//
//   - Brute: enumerate all genome permutations and time each optimally
//     with the O(n) linear algorithms. Exact for every instance kind and
//     machine count; practical to genome length ≈ 10.
//
//   - SubsetCDD: for single-machine CDD instances, every optimal schedule
//     is V-shaped around the due date — the early set appears in
//     non-increasing P_i/α_i order and the tardy set in non-decreasing
//     P_i/β_i order (the weighted generalization of the classic V-shape
//     dominance; verified against Brute in tests). It therefore suffices
//     to enumerate the 2ⁿ early/tardy partitions; each partition is priced
//     in O(n) — the anchored placement plus, on restrictive instances, a
//     closed-form scan over candidate straddling jobs. Practical to
//     n ≈ 22.
//
//   - SolveDP: pseudo-polynomial dynamic programs (see dp.go) that reach
//     n in the hundreds on agreeable CDD instances and on EARLYWORK, with
//     a MaxDPStates budget guard instead of a hard n limit.
package exact

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/problem"
)

// ErrTooLarge is the typed size-guard error wrapped by Brute and SubsetCDD
// when the instance exceeds the enumeration limit (and by the DP budget
// guard ErrBudget). Callers that fall back to heuristics (or that must
// fail loudly instead of hanging on an n! enumeration) test for it with
// errors.Is.
var ErrTooLarge = errors.New("exact: instance too large for exhaustive enumeration")

// Result is an exact optimum.
type Result struct {
	// Cost is the optimal objective value.
	Cost int64
	// Seq is an optimal genome (a job sequence on single-machine
	// instances).
	Seq []int
	// Nodes counts evaluated sequences (brute), partitions (subset), or
	// stored DP states (SolveDP).
	Nodes int64
}

// MaxBruteN bounds the brute-force enumeration (n! sequences).
const MaxBruteN = 10

// MaxSubsetN bounds the subset enumeration (2ⁿ partitions).
const MaxSubsetN = 22

// Brute enumerates every solution and returns the global optimum. For
// single-machine instances that is every job sequence; for genome-coded
// instances (parallel machines, EARLYWORK) it is every delimiter genome —
// every assignment of jobs to machines crossed with every per-machine
// sequence — so Brute stays the universal oracle of the generalized
// stack. It errors when the genome length n + m − 1 exceeds MaxBruteN.
func Brute(in *problem.Instance) (Result, error) {
	n := in.GenomeLen()
	if n > MaxBruteN {
		return Result{}, fmt.Errorf("%w: genome length %d exceeds brute-force limit %d", ErrTooLarge, n, MaxBruteN)
	}
	eval := core.NewEvaluator(in)
	seq := problem.IdentitySequence(n)
	best := Result{Cost: 1 << 62}
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			best.Nodes++
			if c := eval.Cost(seq); c < best.Cost {
				best.Cost = c
				best.Seq = append(best.Seq[:0], seq...)
			}
			return
		}
		for i := k; i < n; i++ {
			seq[k], seq[i] = seq[i], seq[k]
			permute(k + 1)
			seq[k], seq[i] = seq[i], seq[k]
		}
	}
	permute(0)
	return best, nil
}

// SubsetCDD solves a single-machine CDD instance exactly by early/tardy
// partition enumeration with canonical V-shape orderings. Each of the 2ⁿ
// partitions is priced in O(n): the anchored placement (last early job
// completes at d, or the all-tardy block starts at d) plus, on
// restrictive instances, a closed-form scan over every feasible
// straddling job for the start-at-zero placement. It errors for
// controllable (UCDDCP) or multi-machine instances, or when n exceeds
// MaxSubsetN.
func SubsetCDD(in *problem.Instance) (Result, error) {
	n := in.N()
	if n > MaxSubsetN {
		return Result{}, fmt.Errorf("%w: n=%d exceeds subset limit %d", ErrTooLarge, n, MaxSubsetN)
	}
	if in.Kind != problem.CDD {
		return Result{}, fmt.Errorf("exact: SubsetCDD requires a CDD instance, got %v", in.Kind)
	}
	if in.MachineCount() > 1 {
		return Result{}, fmt.Errorf("exact: SubsetCDD requires a single machine, got %d", in.MachineCount())
	}

	// Canonical orders: byAlpha descending P/α for the early side,
	// byBeta ascending P/β for the tardy side.
	byAlpha := problem.IdentitySequence(n)
	sort.SliceStable(byAlpha, func(a, b int) bool {
		ja, jb := in.Jobs[byAlpha[a]], in.Jobs[byAlpha[b]]
		// P_a/α_a > P_b/α_b  ⇔  P_a·α_b > P_b·α_a (α may be zero).
		return ja.P*jb.Alpha > jb.P*ja.Alpha
	})
	byBeta := problem.IdentitySequence(n)
	sort.SliceStable(byBeta, func(a, b int) bool {
		ja, jb := in.Jobs[byBeta[a]], in.Jobs[byBeta[b]]
		return ja.P*jb.Beta < jb.P*ja.Beta
	})

	restrictive := in.Restrictive()
	d := in.D
	p64 := make([]int64, n)
	a64 := make([]int64, n)
	b64 := make([]int64, n)
	for i, j := range in.Jobs {
		p64[i], a64[i], b64[i] = int64(j.P), int64(j.Alpha), int64(j.Beta)
	}
	inEarly := make([]bool, n)
	bestCost := int64(1) << 62
	bestMask := -1
	bestStraddler := -1
	var nodes int64
	for mask := 0; mask < 1<<n; mask++ {
		nodes++
		for i := range inEarly {
			inEarly[i] = mask&(1<<i) != 0
		}
		// Early side in canonical far→near order: Q_E, A_E = Σα(E), and
		// the flush-against-d earliness cost (earliness of each early job
		// is the processing time packed between it and d).
		var qe, ae, earlyFlush int64
		var suf int64
		for i := n - 1; i >= 0; i-- {
			job := byAlpha[i]
			if !inEarly[job] {
				continue
			}
			earlyFlush += a64[job] * suf
			suf += p64[job]
			qe += p64[job]
			ae += a64[job]
		}
		if qe > d {
			continue // no placement completes the early set by d
		}
		// Anchored candidate: tardy tail starts at d in canonical order.
		var tail, tardyAnchored int64
		for _, job := range byBeta {
			if inEarly[job] {
				continue
			}
			tail += p64[job]
			tardyAnchored += b64[job] * tail
		}
		if c := earlyFlush + tardyAnchored; c < bestCost {
			bestCost = c
			bestMask = mask
			bestStraddler = -1
		}
		if !restrictive {
			continue
		}
		// Start-at-zero candidates: early block starts at 0 (each early
		// job loses d−Q_E of slack), straddling job s ∈ T with
		// Q_E < C_s = Q_E+P_s and Q_E ≤ d < Q_E+P_s, remaining tardy jobs
		// in canonical order after s. With baseC_t = Q_E + prefix_t over
		// the canonical tardy order, jobs canonically after s complete at
		// baseC_t and jobs canonically before s are pushed by P_s, so
		//
		//	cost(s) = start0Early + S1 + β_s·(Q_E+P_s−d)
		//	          − β_s·(baseC_s−d) + P_s·Bpre(s)
		//
		// where S1 = Σ_{t∈T} β_t·(baseC_t−d) and Bpre(s) = Σβ of tardy
		// jobs canonically before s.
		start0Early := earlyFlush + ae*(d-qe)
		var s1, prefix int64
		for _, job := range byBeta {
			if inEarly[job] {
				continue
			}
			prefix += p64[job]
			s1 += b64[job] * (qe + prefix - d)
		}
		constPart := start0Early + s1
		var bpre int64
		prefix = 0
		for _, job := range byBeta {
			if inEarly[job] {
				continue
			}
			prefix += p64[job]
			if qe+p64[job] > d {
				baseC := qe + prefix
				c := constPart + b64[job]*(qe+p64[job]-d) - b64[job]*(baseC-d) + p64[job]*bpre
				if c < bestCost {
					bestCost = c
					bestMask = mask
					bestStraddler = job
				}
			}
			bpre += b64[job]
		}
	}
	if bestMask < 0 {
		return Result{}, fmt.Errorf("exact: internal: SubsetCDD found no feasible partition")
	}

	// Build the winning sequence and report its evaluated cost (the O(n)
	// evaluator times the sequence optimally, which can only meet — never
	// beat — the partition formula, so the two agree; tests assert it).
	seq := make([]int, 0, n)
	for i := range inEarly {
		inEarly[i] = bestMask&(1<<i) != 0
	}
	for _, job := range byAlpha {
		if inEarly[job] {
			seq = append(seq, job)
		}
	}
	if bestStraddler >= 0 {
		seq = append(seq, bestStraddler)
	}
	for _, job := range byBeta {
		if !inEarly[job] && job != bestStraddler {
			seq = append(seq, job)
		}
	}
	return Result{Cost: core.NewEvaluator(in).Cost(seq), Seq: seq, Nodes: nodes}, nil
}

// Solve dispatches to the best applicable exact method: the
// pseudo-polynomial DP where it applies within its state budget, then
// SubsetCDD for single-machine CDD instances within its size limit, then
// Brute. Any error other than the typed inapplicability/size sentinels is
// returned as-is.
func Solve(in *problem.Instance) (Result, error) {
	r, err := SolveDP(in)
	switch {
	case err == nil:
		return r, nil
	case !errors.Is(err, ErrInapplicable) && !errors.Is(err, ErrTooLarge):
		return Result{}, err
	}
	if in.Kind == problem.CDD && in.MachineCount() == 1 && in.N() <= MaxSubsetN {
		return SubsetCDD(in)
	}
	return Brute(in)
}

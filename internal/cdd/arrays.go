package cdd

// Index constrains the integer types a job sequence may be stored in: the
// host metaheuristics use []int, the simulated GPU pipeline stores its
// sequence rows as []int32. The generic evaluation cores below run on
// either without conversion, so the host evaluators and the device fitness
// kernels share one implementation and cannot drift.
type Index interface {
	~int | ~int32
}

// OptimizeArrays is the fused single-pass form of the O(n) linear
// algorithm, operating directly on primitive parameter arrays (indexed by
// job id) as the GPU fitness kernel does. One sweep over the sequence
// computes the base completion times together with the weighted penalty
// aggregates
//
//	A  = Σ_early α      AC = Σ_early α·C
//	B  = Σ_tardy β      BC = Σ_tardy β·C
//
// so that for any shift s the total penalty is the O(1) expression
// A·(d−s) − AC + BC + B·(s−d); the event-driven breakpoint walk then moves
// per-job terms between the aggregates and the final cost needs no second
// sweep over the sequence (the costAt pass of the original two-pass
// implementation is gone).
//
// comp is caller-provided scratch of length ≥ len(seq); on return it holds
// the completion times of a start-0 schedule. The returned dueJob is the
// 1-based position of the job completing exactly at d in the optimal
// timing (0 when the optimum starts at zero with no job at d), and ops is
// the abstract operation count the simulated device converts into cycle
// charges.
func OptimizeArrays[S Index](seq []S, p, alpha, beta []int64, d int64, comp []int64) (cost, start int64, dueJob, ops int) {
	n := len(seq)
	var t int64
	tau := 0
	var a, b, ac, bc int64
	for pos, job := range seq {
		t += p[job]
		comp[pos] = t
		if t <= d {
			tau = pos + 1
			a += alpha[job]
			ac += alpha[job] * t
		} else {
			b += beta[job]
			bc += beta[job] * t
		}
	}
	// The fused pass carries two extra multiply-accumulates per job
	// compared with the plain completion-time sweep.
	ops = 8 * n

	// cost at shift 0 is A·d − AC + BC − B·d; the early aggregates include
	// a job completing exactly at d, whose contribution is zero either way.
	if tau == 0 {
		return bc - d*b, 0, 0, ops + 4
	}
	if comp[tau-1] < d && b >= a {
		return a*d - ac + bc - b*d, 0, 0, ops + 6
	}

	// Breakpoint walk: job r completes exactly at d after a shift of
	// d − comp[r-1]. Entering the loop, job r = τ sits at d: its terms move
	// from the early to the tardy aggregates.
	r := tau
	jb := seq[r-1]
	a -= alpha[jb]
	ac -= alpha[jb] * comp[r-1]
	b += beta[jb]
	bc += beta[jb] * comp[r-1]
	for r > 1 && a > b {
		r--
		jb = seq[r-1]
		a -= alpha[jb]
		ac -= alpha[jb] * comp[r-1]
		b += beta[jb]
		bc += beta[jb] * comp[r-1]
		ops += 6
	}
	// At shift s = d − comp[r-1]: d − s = comp[r-1] and s − d = −comp[r-1].
	cm := comp[r-1]
	return a*cm - ac + bc - b*cm, d - cm, r, ops + 8
}

// CostArrays is the cost-only form of OptimizeArrays with identical
// arithmetic (bit-identical results) but no completion-time stores: the
// sweep is split at τ so each half reads a single penalty stream without a
// per-iteration branch, and the breakpoint walk reconstructs the
// completion times it needs by peeling processing times off the running
// sum. It is the safe (bounds-checked) reference for CostRowArrays, the
// production kernel with the same arithmetic over unchecked gathers: the
// verify oracle chain and the fuzz targets compare the two.
func CostArrays[S Index](seq []S, p, alpha, beta []int64, d int64) int64 {
	n := len(seq)
	var t, a, b, ac, bc int64
	i := 0
	for ; i < n; i++ {
		j := seq[i]
		t += p[j]
		if t > d {
			break
		}
		a += alpha[j]
		ac += alpha[j] * t
	}
	tau := i
	cm := t // completion of the last early job once the tardy head is removed
	if i < n {
		j := seq[i]
		cm = t - p[j]
		b += beta[j]
		bc += beta[j] * t
		for i++; i < n; i++ {
			j = seq[i]
			t += p[j]
			b += beta[j]
			bc += beta[j] * t
		}
	}
	if tau == 0 {
		return bc - d*b
	}
	if cm < d && b >= a {
		return a*d - ac + bc - b*d
	}
	r := tau
	jb := seq[r-1]
	a -= alpha[jb]
	ac -= alpha[jb] * cm
	b += beta[jb]
	bc += beta[jb] * cm
	for r > 1 && a > b {
		cm -= p[jb]
		r--
		jb = seq[r-1]
		a -= alpha[jb]
		ac -= alpha[jb] * cm
		b += beta[jb]
		bc += beta[jb] * cm
	}
	return a*cm - ac + bc - b*cm
}

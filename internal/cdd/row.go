package cdd

import "unsafe"

// This file holds the production CDD row kernel: CostArrays arithmetic
// over an unchecked gather. Each iteration validates its job index once
// against the column length (one predictable comparison re-establishing
// memory safety) and then loads p/α/β without the per-access bounds
// checks that the branchy data-dependent indices otherwise force on
// every iteration. The arithmetic is statement-for-statement
// CostArrays, so costs are bit-identical to it; keeping the safe
// CostArrays untouched preserves an independent reference the verify
// oracle chain, the fuzz targets and FuzzBatchEvaluator cross-check
// against. (A pair-interleaved two-rows-per-sweep variant was measured
// and lost: the sweep is uop-throughput-bound, so doubling the live
// accumulator state spills registers without hiding any latency.)

// CostRowArrays is the production cost kernel behind every CDD
// evaluation: CostArrays arithmetic with a single fused index check per
// element (one comparison covers the two or three data-dependent
// gathers of an iteration, which the bounds-checked path pays for
// separately) followed by unchecked loads. seq may be any subsequence
// of job ids (a genome segment); indices are checked against the
// column length len(p), and alpha and beta must be at least that long.
// Bit-identical to CostArrays; panics on an index outside [0, len(p))
// before any unchecked access, exactly like the safe path panics out of
// range.
func CostRowArrays[S Index](seq []S, p, alpha, beta []int64, d int64) int64 {
	if len(seq) == 0 {
		return 0
	}
	cols := len(p)
	alpha, beta = alpha[:cols], beta[:cols]
	return costRow(seq, cols, &p[0], &alpha[0], &beta[0], d)
}

// gather loads base[j] without a bounds check; callers must have
// validated j against the column length.
func gather[S Index](base *int64, j S) int64 {
	return *(*int64)(unsafe.Add(unsafe.Pointer(base), uintptr(int64(j))<<3))
}

// checkIdx panics unless 0 ≤ j < n; the uint comparison folds the
// negative and too-large cases into one predictable branch.
func checkIdx[S Index](j S, n int) {
	if uint64(int64(j)) >= uint64(n) {
		panic("cdd: sequence index out of range")
	}
}

// costRow is CostArrays with each iteration's gathers (p[j], alpha[j],
// beta[j]) guarded by one fused index check against the column length
// cols and then loaded unchecked; see CostArrays for the algorithm
// commentary. Sequence loads stay bounds-checked — the compiler proves
// them away from the loop shapes.
func costRow[S Index](seq []S, cols int, p0, alpha0, beta0 *int64, d int64) int64 {
	n := len(seq)
	var t, a, b, ac, bc int64
	i := 0
	for ; i < n; i++ {
		j := seq[i]
		checkIdx(j, cols)
		t += gather(p0, j)
		if t > d {
			break
		}
		aj := gather(alpha0, j)
		a += aj
		ac += aj * t
	}
	tau := i
	cm := t
	if i < n {
		j := seq[i]
		cm = t - gather(p0, j)
		bj := gather(beta0, j)
		b += bj
		bc += bj * t
		for i++; i < n; i++ {
			j = seq[i]
			checkIdx(j, cols)
			t += gather(p0, j)
			bj = gather(beta0, j)
			b += bj
			bc += bj * t
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
	aj := gather(alpha0, jb)
	bj := gather(beta0, jb)
	a -= aj
	ac -= aj * cm
	b += bj
	bc += bj * cm
	for r > 1 && a > b {
		cm -= gather(p0, jb)
		r--
		jb = seq[r-1]
		aj = gather(alpha0, jb)
		bj = gather(beta0, jb)
		a -= aj
		ac -= aj * cm
		b += bj
		bc += bj * cm
	}
	return a*cm - ac + bc - b*cm
}

package ucddcp

import "repro/internal/cdd"

// Delta is the incremental UCDDCP evaluator. Phase 1 (the CDD timing of
// the uncompressed sequence) is fully incremental through cdd.Delta —
// O(k + log n · log k) per proposal — while the compression phase, whose
// all-or-nothing decisions are global, re-runs on materialized completion
// times in one O(n) sweep. That still removes the completion-time sweep
// and the standalone cost pass from the candidate evaluation, and commits
// are windowed updates of the phase-1 cache.
//
// The generic index type lets the host drivers ([]int) and the simulated
// GPU pipeline ([]int32) share the implementation. Not safe for
// concurrent use.
type Delta[S cdd.Index] struct {
	p, m, alpha, beta, gamma []int64
	d                        int64
	dl                       *cdd.Delta[S]
	comp, scratch            []int64
	cost                     int64 // committed UCDDCP cost
	pendCost                 int64
	pendValid                bool
}

// NewDelta builds an incremental evaluator over the parameter arrays (as
// produced by ParamArrays) and due date. Reset must be called before the
// first Propose.
func NewDelta[S cdd.Index](p, m, alpha, beta, gamma []int64, d int64) *Delta[S] {
	n := len(p)
	return &Delta[S]{
		p: p, m: m, alpha: alpha, beta: beta, gamma: gamma, d: d,
		dl:      cdd.NewDelta[S](p, alpha, beta, d),
		comp:    make([]int64, n),
		scratch: make([]int64, n),
	}
}

// Reset caches seq as the committed base sequence and returns its
// optimized UCDDCP cost.
func (dl *Delta[S]) Reset(seq []S) int64 {
	dl.dl.Reset(seq)
	dl.cost = dl.evalFull(seq)
	dl.pendValid = false
	return dl.cost
}

// evalFull is a stateless fused full pass over seq using the delta's
// scratch buffers (the propose/commit cache is untouched).
func (dl *Delta[S]) evalFull(seq []S) int64 {
	cost, _, _, _ := OptimizeArrays(seq, dl.p, dl.m, dl.alpha, dl.beta, dl.gamma, dl.d, dl.comp, dl.scratch, nil)
	return cost
}

// Propose evaluates cand, which must equal the committed base sequence
// everywhere outside positions, returning its optimized cost —
// bit-identical to a full pass — without mutating the committed cache.
func (dl *Delta[S]) Propose(cand []S, positions []int) int64 {
	dl.dl.Propose(cand, positions)
	_, shiftAll, r := dl.dl.Pending()
	dl.dl.MaterializeComp(dl.comp)
	if shiftAll != 0 {
		for pos := range dl.comp {
			dl.comp[pos] += shiftAll
		}
	}
	cost, _, _ := compressArrays(cand, dl.p, dl.m, dl.alpha, dl.beta, dl.gamma, dl.d, r, dl.comp, dl.scratch, nil)
	dl.pendCost = cost
	dl.pendValid = true
	return cost
}

// Commit adopts the pending candidate as the new committed base sequence.
// Panics without a pending proposal.
func (dl *Delta[S]) Commit() {
	dl.dl.Commit()
	dl.cost = dl.pendCost
	dl.pendValid = false
}

// Committed returns the committed base sequence's optimized cost.
func (dl *Delta[S]) Committed() int64 { return dl.cost }

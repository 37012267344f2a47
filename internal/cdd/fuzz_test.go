package cdd_test

import (
	"testing"

	"repro/internal/cdd"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// cddFromBytes decodes a fuzzer payload into a valid CDD instance: three
// bytes per job (p, α, β with zero penalties allowed), due date from dRaw
// within [0, 2·ΣP+1]. Returns nil when the payload is too short.
func cddFromBytes(data []byte, dRaw uint64) *problem.Instance {
	n := len(data) / 3
	if n < 1 {
		return nil
	}
	if n > 24 {
		n = 24
	}
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum uint64
	for i := 0; i < n; i++ {
		p[i] = 1 + int(data[3*i]%20)
		alpha[i] = int(data[3*i+1] % 11)
		beta[i] = int(data[3*i+2] % 16)
		sum += uint64(p[i])
	}
	in, err := problem.NewCDD("fuzz", p, alpha, beta, int64(dRaw%(2*sum+2)))
	if err != nil {
		panic(err) // valid by construction
	}
	return in
}

// FuzzCDDDeltaVsFull drives the incremental propose/commit evaluator
// through a random walk of swap and segment-reversal moves on
// fuzzer-chosen instances and cross-checks every proposal against the
// safe cost-only reference pass CostArrays. The delta path promises
// bit-identical costs; any divergence is a bug in the Fenwick-backed
// correction machinery.
func FuzzCDDDeltaVsFull(f *testing.F) {
	f.Add([]byte{6, 7, 9, 5, 9, 5, 2, 6, 4, 4, 9, 3, 4, 2, 1}, uint64(16), uint64(1))
	f.Add([]byte{1, 0, 1, 1, 1, 0, 20, 10, 15}, uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, dRaw, seed uint64) {
		in := cddFromBytes(data, dRaw)
		if in == nil {
			t.Skip("payload too short for one job")
		}
		n := in.N()
		rng := xrand.New(seed | 1)
		p, alpha, beta := cdd.ParamArrays(in)
		dl := cdd.NewDelta[int](p, alpha, beta, in.D)
		base := problem.IdentitySequence(n)
		if got, want := dl.Reset(base), cdd.CostArrays(base, p, alpha, beta, in.D); got != want {
			t.Fatalf("Reset=%d, full=%d on identity", got, want)
		}
		cand := make([]int, n)
		for step := 0; step < 24; step++ {
			copy(cand, base)
			var pos []int
			if rng.Intn(2) == 0 || n < 3 {
				i, j := rng.Intn(n), rng.Intn(n)
				cand[i], cand[j] = cand[j], cand[i]
				pos = []int{i, j}
			} else {
				l := rng.Intn(n - 1)
				r := l + 1 + rng.Intn(n-l-1)
				for a, b := l, r; a < b; a, b = a+1, b-1 {
					cand[a], cand[b] = cand[b], cand[a]
				}
				for k := l; k <= r; k++ {
					pos = append(pos, k)
				}
			}
			if got, want := dl.Propose(cand, pos), cdd.CostArrays(cand, p, alpha, beta, in.D); got != want {
				t.Fatalf("step %d: Propose=%d, full=%d (d=%d base=%v cand=%v pos=%v)",
					step, got, want, in.D, base, cand, pos)
			}
			if rng.Intn(2) == 0 {
				dl.Commit()
				copy(base, cand)
			}
		}
	})
}

package duedate_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	duedate "repro"
	"repro/internal/exact"
	"repro/internal/problem"
)

// facadeInstanceFromBytes decodes a fuzzer payload into a small valid
// instance of any kind (three bytes per job; UCDDCP adds m and γ from
// the same bytes, folded into range) on 1–3 machines: bits 32+ of dRaw
// select the kind and bits 48+ the machine count, so the fuzzer steers
// the parallel-machine genome path as freely as the instance data.
// Returns nil when too short.
func facadeInstanceFromBytes(data []byte, dRaw, kindRaw uint64) *problem.Instance {
	n := len(data) / 3
	if n < 1 {
		return nil
	}
	if n > 8 {
		n = 8
	}
	machines := 1 + int((dRaw>>48)%3)
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
	var in *problem.Instance
	var err error
	switch kindRaw % 3 {
	case 1:
		m := make([]int, n)
		gamma := make([]int, n)
		for i := 0; i < n; i++ {
			m[i] = 1 + int(data[3*i+1])%p[i]
			gamma[i] = int(data[3*i+2] % 11)
		}
		// d ≥ ΣP keeps every machine segment unrestricted regardless of
		// the assignment, so the instance stays valid on any machine count.
		in, err = problem.NewUCDDCP("fuzz", p, m, alpha, beta, gamma, int64(sum+dRaw%(sum+1)))
	case 2:
		in, err = problem.NewEarlyWork("fuzz", p, machines, int64((dRaw&0xffffffff)%(sum+1)))
	default:
		in, err = problem.NewCDD("fuzz", p, alpha, beta, int64((dRaw&0xffffffff)%(2*sum+2)))
	}
	if err != nil {
		panic(err) // valid by construction
	}
	in.Machines = machines
	return in
}

// FuzzSolveFacade runs fuzzer-chosen instances through SolveContext with
// fuzzer-chosen algorithm×engine selections and tiny budgets. The facade
// contract under test: unregistered pairings fail with
// ErrUnsupportedPairing (never a panic), and every successful solve
// returns a valid permutation whose re-evaluated cost matches BestCost.
func FuzzSolveFacade(f *testing.F) {
	f.Add([]byte{6, 7, 9, 5, 9, 5, 2, 6, 4}, uint64(16), uint64(1), uint64(0), uint64(0))
	f.Add([]byte{1, 0, 1, 20, 10, 0}, uint64(3), uint64(2), uint64(3), uint64(2))
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint64(9), uint64(4), uint64(2), uint64(0))
	// Parallel-machine seeds: bits 48+ of dRaw pick the machine count,
	// bits 32–47 the kind (2 = EARLYWORK on 3 machines; 1 = UCDDCP on 2).
	f.Add([]byte{6, 7, 9, 5, 9, 5, 2, 6, 4, 4, 3, 2}, uint64(2)<<48|uint64(2)<<32|9, uint64(3), uint64(0), uint64(0))
	f.Add([]byte{6, 7, 9, 5, 9, 5, 2, 6, 4}, uint64(1)<<48|uint64(1)<<32|5, uint64(7), uint64(1), uint64(1))
	f.Add([]byte{3, 1, 2, 8, 4, 7}, uint64(1)<<48|16, uint64(11), uint64(2), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, dRaw, seed, algoRaw, engRaw uint64) {
		kindRaw := (dRaw >> 32) & 0xffff
		in := facadeInstanceFromBytes(data, dRaw, kindRaw)
		if in == nil {
			t.Skip("payload too short for one job")
		}
		opts := duedate.Options{
			Algorithm:   duedate.Algorithm(algoRaw % 5),
			Engine:      duedate.Engine(engRaw % 3),
			Iterations:  4,
			Grid:        1,
			Block:       2,
			TempSamples: 8,
			Seed:        seed,
		}
		res, err := duedate.SolveContext(context.Background(), in, opts)
		if err != nil {
			// Three typed rejections are contract behavior: pairings that
			// are not registered, and the exact layer's capability declines
			// (outside its provable domain, or over its state budget).
			// Anything else — and any panic — is a bug.
			if !errors.Is(err, duedate.ErrUnsupportedPairing) &&
				!errors.Is(err, exact.ErrInapplicable) &&
				!errors.Is(err, exact.ErrTooLarge) {
				t.Fatalf("unexpected error class from SolveContext: %v", err)
			}
			return
		}
		if len(res.BestSeq) != in.GenomeLen() || !problem.IsPermutation(res.BestSeq) {
			t.Fatalf("best genome %v is not a permutation of 0..%d", res.BestSeq, in.GenomeLen()-1)
		}
		honest, err := duedate.Cost(in, res.BestSeq)
		if err != nil {
			t.Fatalf("re-evaluating the best sequence: %v", err)
		}
		if honest != res.BestCost {
			t.Fatalf("reported cost %d, sequence re-evaluates to %d", res.BestCost, honest)
		}
		// The canonical hash — the server's cache-key prefix — must
		// survive the JSON wire form for every kind and machine count.
		wire, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshaling the instance: %v", err)
		}
		var back problem.Instance
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("round-tripping the instance: %v", err)
		}
		if back.CanonicalHash() != in.CanonicalHash() {
			t.Fatalf("canonical hash changed across the JSON round trip: %s vs %s",
				back.CanonicalHash(), in.CanonicalHash())
		}
	})
}

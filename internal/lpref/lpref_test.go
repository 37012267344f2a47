package lpref

import (
	"math/rand"
	"testing"

	"repro/internal/cdd"
	"repro/internal/orlib"
	"repro/internal/problem"
	"repro/internal/ucddcp"
)

// TestLPMatchesLinearCDD pins the LP optimum to the O(n) CDD algorithm on
// random benchmark instances — the equivalence the paper's two-layered
// decomposition rests on.
func TestLPMatchesLinearCDD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		ins, err := orlib.BenchmarkCDD(n, 1, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		in := ins[rng.Intn(len(ins))]
		seq := problem.IdentitySequence(n)
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

		lp, err := Solve(in, seq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := cdd.OptimizeSequence(in, seq).Cost
		if lp.RoundedCost() != want {
			t.Fatalf("trial %d (n=%d): LP %v (%d), linear algorithm %d",
				trial, n, lp.Cost, lp.RoundedCost(), want)
		}
	}
}

// TestLPMatchesLinearUCDDCP does the same for the controllable problem,
// validating both the compression bounds and Property 1/2 reasoning.
func TestLPMatchesLinearUCDDCP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		ins, err := orlib.BenchmarkUCDDCP(n, 1, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		in := ins[0]
		seq := problem.IdentitySequence(n)
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

		lp, err := Solve(in, seq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ucddcp.OptimizeSequence(in, seq).Cost
		if lp.RoundedCost() != want {
			t.Fatalf("trial %d (n=%d): LP %v (%d), linear algorithm %d",
				trial, n, lp.Cost, lp.RoundedCost(), want)
		}
	}
}

// TestPaperExampleLP solves the worked example's LPs: 81 for CDD (d=16)
// and 77 for UCDDCP (d=22).
func TestPaperExampleLP(t *testing.T) {
	seq := problem.IdentitySequence(5)
	lpC, err := Solve(problem.PaperExample(problem.CDD), seq)
	if err != nil {
		t.Fatal(err)
	}
	if lpC.RoundedCost() != 81 {
		t.Errorf("CDD LP = %v, want 81", lpC.Cost)
	}
	lpU, err := Solve(problem.PaperExample(problem.UCDDCP), seq)
	if err != nil {
		t.Fatal(err)
	}
	if lpU.RoundedCost() != 77 {
		t.Errorf("UCDDCP LP = %v, want 77", lpU.Cost)
	}
	// The LP must also find the compressions of jobs 4 and 5.
	if lpU.X[3] < 0.999 || lpU.X[4] < 0.999 {
		t.Errorf("LP compressions = %v, want jobs 4 and 5 compressed by 1", lpU.X)
	}
}

// TestLPStartFeasible checks the LP's start time stays non-negative and
// reproduces the exact schedule cost.
func TestLPStartFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		ins, err := orlib.BenchmarkCDD(n, 1, uint64(trial+100))
		if err != nil {
			t.Fatal(err)
		}
		in := ins[0] // h = 0.2, strongly restrictive
		seq := problem.IdentitySequence(n)
		lp, err := Solve(in, seq)
		if err != nil {
			t.Fatal(err)
		}
		if lp.Start < -1e-9 {
			t.Fatalf("trial %d: negative LP start %v", trial, lp.Start)
		}
	}
}

// BenchmarkLPvsLinear quantifies the paper's motivation for the O(n)
// algorithms: the general LP solve versus the specialized evaluation of
// the same sequence.
func BenchmarkLPvsLinear(b *testing.B) {
	ins, err := orlib.BenchmarkCDD(30, 1, 9)
	if err != nil {
		b.Fatal(err)
	}
	in := ins[2]
	seq := problem.IdentitySequence(30)
	b.Run("LP_simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(in, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linear_On", func(b *testing.B) {
		p, alpha, beta := cdd.ParamArrays(in)
		for i := 0; i < b.N; i++ {
			cdd.CostArrays(seq, p, alpha, beta, in.D)
		}
	})
}

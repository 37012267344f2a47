package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
)

func randomUnrestrictedCDD(rng *rand.Rand, n int) *problem.Instance {
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum int64
	for i := 0; i < n; i++ {
		p[i] = 1 + rng.Intn(15)
		alpha[i] = 1 + rng.Intn(10)
		beta[i] = 1 + rng.Intn(15)
		sum += int64(p[i])
	}
	d := sum + int64(rng.Intn(20))
	in, err := problem.NewCDD("u", p, alpha, beta, d)
	if err != nil {
		panic(err)
	}
	return in
}

func randomRestrictiveCDD(rng *rand.Rand, n int) *problem.Instance {
	in := randomUnrestrictedCDD(rng, n)
	in.D = int64(float64(in.SumP()) * (0.2 + 0.6*rng.Float64()))
	return in
}

// TestPaperExampleExact: the global optimum of the Table I CDD instance
// over all 120 sequences is 81 (the identity sequence is optimal).
func TestPaperExampleExact(t *testing.T) {
	res, err := Brute(problem.PaperExample(problem.CDD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 81 {
		t.Errorf("brute optimum = %d, want 81", res.Cost)
	}
	if res.Nodes != 120 {
		t.Errorf("nodes = %d, want 120", res.Nodes)
	}
	resU, err := Brute(problem.PaperExample(problem.UCDDCP))
	if err != nil {
		t.Fatal(err)
	}
	if resU.Cost != 77 {
		t.Errorf("UCDDCP brute optimum = %d, want 77", resU.Cost)
	}
}

// TestSubsetMatchesBrute is the V-shape dominance check: on random
// unrestricted instances the partition enumeration must match full
// permutation enumeration exactly.
func TestSubsetMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7)
		in := randomUnrestrictedCDD(rng, n)
		sub, err := SubsetCDD(in)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := Brute(in)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Cost != brute.Cost {
			t.Fatalf("trial %d (n=%d, d=%d): subset %d != brute %d\njobs=%+v",
				trial, n, in.D, sub.Cost, brute.Cost, in.Jobs)
		}
	}
}

// TestSubsetTiesWithZeroWeights exercises α = 0 / β = 0 corner cases of
// the ratio orderings.
func TestSubsetTiesWithZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(6)
		in := randomUnrestrictedCDD(rng, n)
		// Zero out some weights.
		for i := range in.Jobs {
			if rng.Intn(3) == 0 {
				in.Jobs[i].Alpha = 0
			}
			if rng.Intn(3) == 0 {
				in.Jobs[i].Beta = 0
			}
		}
		sub, err := SubsetCDD(in)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := Brute(in)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Cost != brute.Cost {
			t.Fatalf("trial %d: subset %d != brute %d (zero-weight case)\njobs=%+v d=%d",
				trial, sub.Cost, brute.Cost, in.Jobs, in.D)
		}
	}
}

func TestGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big := randomUnrestrictedCDD(rng, MaxBruteN+1)
	if _, err := Brute(big); err == nil {
		t.Error("brute accepted oversized instance")
	}
	huge := randomUnrestrictedCDD(rng, MaxSubsetN+1)
	if _, err := SubsetCDD(huge); err == nil {
		t.Error("subset accepted oversized instance")
	}
	restr := randomRestrictiveCDD(rng, 6)
	if _, err := SubsetCDD(restr); err != nil {
		t.Errorf("subset must accept a restrictive instance since the straddler extension: %v", err)
	}
	ucd := problem.PaperExample(problem.UCDDCP)
	if _, err := SubsetCDD(ucd); err == nil {
		t.Error("subset accepted a controllable instance")
	}
}

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Unrestricted n=12: must route to the subset method (brute would
	// error at this size).
	in := randomUnrestrictedCDD(rng, 12)
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !problem.IsPermutation(res.Seq) {
		t.Error("optimal sequence is not a permutation")
	}
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.Seq); got != res.Cost {
		t.Errorf("optimum %d but sequence evaluates to %d", res.Cost, got)
	}
	// Restrictive n=8 with general weights: whichever method the
	// dispatcher picks (DP if the draw happens to be agreeable, subset
	// otherwise), the result must match full permutation enumeration.
	in2 := randomRestrictiveCDD(rng, 8)
	res2, err := Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	brute2, err := Brute(in2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost != brute2.Cost {
		t.Errorf("restrictive dispatch optimum %d != brute %d", res2.Cost, brute2.Cost)
	}
	// EARLYWORK on 3 machines beyond brute reach: must route to the DP.
	p := make([]int, 12)
	for i := range p {
		p[i] = 1 + rng.Intn(6)
	}
	ew, err := problem.NewEarlyWork("dispatch-ew", p, 3, 14)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Solve(ew)
	if err != nil {
		t.Fatal(err)
	}
	if !ew.IsGenome(res3.Seq) {
		t.Error("EARLYWORK dispatch returned an invalid genome")
	}
}

// TestSAReachesExactOptimum is the integration oracle: the parallel SA
// ensemble must hit the exact optimum on small instances.
func TestSAReachesExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		in := randomUnrestrictedCDD(rng, 8)
		opt, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sa.DefaultConfig()
		cfg.Iterations = 400
		cfg.TempSamples = 200
		res, err := (&parallel.AsyncSA{
			SA:       cfg,
			Ens:      parallel.Ensemble{Chains: 16, Seed: uint64(trial)},
			Parallel: true,
		}).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost < opt.Cost {
			t.Fatalf("trial %d: SA %d beats the exact optimum %d — a solver bug", trial, res.BestCost, opt.Cost)
		}
		if res.BestCost != opt.Cost {
			t.Errorf("trial %d: SA %d missed the exact optimum %d on n=8", trial, res.BestCost, opt.Cost)
		}
	}
}

// TestErrTooLargeSentinel: the size guards must wrap the typed sentinel
// (so differential harnesses fail loudly with errors.Is instead of
// hanging on an n! enumeration), while the domain rejections — wrong
// kind — must NOT claim the instance was too large.
func TestErrTooLargeSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	if _, err := Brute(randomUnrestrictedCDD(rng, MaxBruteN+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Brute oversize: got %v, want ErrTooLarge", err)
	}
	if _, err := SubsetCDD(randomUnrestrictedCDD(rng, MaxSubsetN+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("SubsetCDD oversize: got %v, want ErrTooLarge", err)
	}
	if _, err := SubsetCDD(problem.PaperExample(problem.UCDDCP)); errors.Is(err, ErrTooLarge) {
		t.Errorf("kind rejection mislabeled as ErrTooLarge: %v", err)
	}
	if _, err := Brute(randomUnrestrictedCDD(rng, MaxBruteN)); err != nil {
		t.Errorf("Brute at the limit must still run: %v", err)
	}
}

package verify

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/problem"
	"repro/internal/xrand"
)

func TestFamiliesGenerateValidDeterministicInstances(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			for trial := 0; trial < 16; trial++ {
				in := fam.Gen(xrand.NewStream(7, uint64(trial)), trial, 8)
				if err := in.Validate(); err != nil {
					t.Fatalf("trial %d: invalid instance: %v", trial, err)
				}
				again := fam.Gen(xrand.NewStream(7, uint64(trial)), trial, 8)
				if !reflect.DeepEqual(in, again) {
					t.Fatalf("trial %d: generator is not deterministic for a fixed stream", trial)
				}
			}
		})
	}
}

func TestFamilyByName(t *testing.T) {
	f, err := FamilyByName("d-zero")
	if err != nil || f.Name != "d-zero" {
		t.Fatalf("FamilyByName(d-zero) = %v, %v", f.Name, err)
	}
	if _, err := FamilyByName("no-such-family"); err == nil {
		t.Fatal("FamilyByName accepted an unknown name")
	}
}

func TestRunCleanWithoutDrivers(t *testing.T) {
	rep, err := Run(context.Background(), Config{Trials: 4, Seed: 3, MaxN: 7}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("expected a clean run, got %d discrepancies; first: %+v", len(rep.Discrepancies), rep.Discrepancies[0])
	}
	if want := 4 * len(Families()); rep.Instances != want {
		t.Fatalf("Instances = %d, want %d", rep.Instances, want)
	}
	for _, check := range []string{"sequence-agreement", "delta-walk", "metamorphic", "oracle-chain", "dp-solve", "dp-oracle"} {
		if rep.Checks[check] == 0 {
			t.Errorf("check %q never ran", check)
		}
	}
	// The DP leg's instances are accounted separately: 3 default trials ×
	// (large CDD + EARLYWORK) + 2 brute-checked restrictive smalls.
	if rep.DPInstances != 8 {
		t.Errorf("DPInstances = %d, want 8", rep.DPInstances)
	}
}

func TestRunDPLegDisabled(t *testing.T) {
	rep, err := Run(context.Background(), Config{Trials: 1, Families: []string{"single-job"}, DPTrials: -1}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.DPInstances != 0 || rep.Checks["dp-solve"] != 0 {
		t.Fatalf("DPTrials < 0 must disable the leg, got %d instances, %d dp-solve checks",
			rep.DPInstances, rep.Checks["dp-solve"])
	}
}

func TestRunFamilyFilter(t *testing.T) {
	rep, err := Run(context.Background(), Config{Trials: 2, Families: []string{"single-job"}}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Instances != 2 {
		t.Fatalf("Instances = %d, want 2", rep.Instances)
	}
	if _, err := Run(context.Background(), Config{Trials: 1, Families: []string{"bogus"}}, nil); err == nil {
		t.Fatal("Run accepted an unknown family filter")
	}
}

func TestRunCancelledReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Config{Trials: 2}, nil)
	if err == nil {
		t.Fatal("Run ignored the cancelled context")
	}
	if rep == nil {
		t.Fatal("Run returned a nil report on cancellation")
	}
}

// TestMutationBrokenEvaluatorCaught is the evaluator-level mutation smoke
// test: an injected evaluator that disagrees by 1 on some instances must
// be flagged by the sequence-agreement chain, proving the chain has teeth.
func TestMutationBrokenEvaluatorCaught(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	seq := problem.IdentitySequence(in.N())
	broken := NamedCost{Name: "mutant", Cost: func(in *problem.Instance, seq []int) (int64, error) {
		return core.NewEvaluator(in).Cost(seq) + 1, nil
	}}
	ds := CheckSequenceAgreement(in, seq, broken)
	if len(ds) != 1 || ds[0].Driver != "mutant" {
		t.Fatalf("broken evaluator not caught: %+v", ds)
	}
	if ds := CheckSequenceAgreement(in, seq); len(ds) != 0 {
		t.Fatalf("standard chain disagrees on the paper example: %+v", ds)
	}

	failing := NamedCost{Name: "erroring", Cost: func(*problem.Instance, []int) (int64, error) {
		return 0, fmt.Errorf("deliberate failure")
	}}
	if ds := CheckSequenceAgreement(in, seq, failing); len(ds) != 1 || ds[0].Driver != "erroring" {
		t.Fatalf("erroring evaluator not caught: %+v", ds)
	}
}

// TestMutationBrokenDriversCaught is the driver-level mutation smoke test:
// dishonest costs, impossible optima and infeasible sequences must each be
// flagged by their dedicated check.
func TestMutationBrokenDriversCaught(t *testing.T) {
	drivers := []Driver{
		{Name: "dishonest", Solve: func(_ context.Context, in *problem.Instance, _ uint64) (core.Result, error) {
			seq := problem.IdentitySequence(in.N())
			return core.Result{BestSeq: seq, BestCost: core.NewEvaluator(in).Cost(seq) + 5}, nil
		}},
		{Name: "impossible", Solve: func(_ context.Context, in *problem.Instance, _ uint64) (core.Result, error) {
			return core.Result{BestSeq: problem.IdentitySequence(in.N()), BestCost: -1}, nil
		}},
		{Name: "infeasible", Solve: func(_ context.Context, in *problem.Instance, _ uint64) (core.Result, error) {
			return core.Result{BestSeq: make([]int, in.N())}, nil
		}},
		{Name: "erroring", Solve: func(context.Context, *problem.Instance, uint64) (core.Result, error) {
			return core.Result{}, fmt.Errorf("deliberate failure")
		}},
	}
	rep, err := Run(context.Background(), Config{Trials: 1, MaxN: 5, Families: []string{"uniform-cdd"}}, drivers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	caught := map[string]map[string]bool{} // driver -> checks that fired
	for _, d := range rep.Discrepancies {
		if caught[d.Driver] == nil {
			caught[d.Driver] = map[string]bool{}
		}
		caught[d.Driver][d.Check] = true
	}
	for driver, check := range map[string]string{
		"dishonest":  "driver-honest-cost",
		"impossible": "driver-beats-exact",
		"infeasible": "driver-feasibility",
		"erroring":   "driver-error",
	} {
		if !caught[driver][check] {
			t.Errorf("broken driver %q not flagged by %q (got %v)", driver, check, caught[driver])
		}
	}
	// n=1 instances have a single sequence: every driver that returns it
	// honestly is optimal, so the infeasible/dishonest mutants must not
	// leak through on larger instances either — Ok() must be false.
	if rep.Ok() {
		t.Fatal("report claims a clean run despite broken drivers")
	}
}

func TestCheckExactOraclesVShapeAgreement(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 24; trial++ {
		in := genExhaustiveSizes(rng, trial%8, 8) // n in 1..8: both oracles apply
		bounds, ds := CheckExactOracles(in, exact.MaxBruteN, exact.MaxSubsetN)
		if len(ds) != 0 {
			t.Fatalf("trial %d: %+v", trial, ds)
		}
		if !bounds.Known || !bounds.Brute || !bounds.Subset {
			t.Fatalf("trial %d: expected both oracles on %s, got %+v", trial, in.Name, bounds)
		}
	}
}

func TestCheckExactOraclesSizeGuard(t *testing.T) {
	// n just past MaxBruteN: the typed guard must fire, not an enumeration.
	n := exact.MaxBruteN + 1
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	for i := range p {
		p[i], alpha[i], beta[i] = 1, 1, 1
	}
	in, err := problem.NewCDD("guard", p, alpha, beta, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	bounds, ds := CheckExactOracles(in, exact.MaxBruteN, 0)
	if len(ds) != 0 {
		t.Fatalf("size guard misbehaved: %+v", ds)
	}
	if bounds.Brute {
		t.Fatal("brute claimed to run past its limit")
	}
}

func TestRegisteredDriversCoverEveryPairing(t *testing.T) {
	drivers := RegisteredDrivers(Budget{})
	names := map[string]bool{}
	for _, d := range drivers {
		names[d.Name] = true
	}
	// One driver per registry pairing.
	if len(drivers) != 12 {
		t.Fatalf("RegisteredDrivers returned %d drivers (%v), want 12", len(drivers), names)
	}
	for _, want := range []string{"SA/gpu", "SA/cpu-serial", "DPSO/gpu", "TA/cpu-parallel", "ES/cpu-serial", "EXACT-DP/cpu-serial", "AUTO/cpu-parallel"} {
		if !names[want] {
			t.Errorf("driver %q missing from %v", want, names)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), Config{Trials: 1, Families: []string{"single-job"}}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Instances != rep.Instances || len(back.Checks) != len(rep.Checks) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, rep)
	}
	if s := rep.Summary(); !strings.Contains(s, "1 instances") || !strings.Contains(s, "0 discrepancies") {
		t.Fatalf("Summary() = %q", s)
	}
}

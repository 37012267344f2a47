package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/problem"
	"repro/internal/xrand"
)

// TestNewEvaluatorDispatch pins both constructors on the paper's worked
// examples: the evaluator and the delta evaluator's Reset report the
// paper's optima, and the delta evaluator's stateless Cost leaves a
// pending proposal intact for Commit.
func TestNewEvaluatorDispatch(t *testing.T) {
	for kind, want := range map[problem.Kind]int64{problem.CDD: 81, problem.UCDDCP: 77} {
		in := problem.PaperExample(kind)
		seq := problem.IdentitySequence(5)
		if got := NewEvaluator(in).Cost(seq); got != want {
			t.Errorf("%s evaluator cost = %d, want %d", kind, got, want)
		}
		de := NewDeltaEvaluator(in)
		if got := de.Reset(seq); got != want {
			t.Errorf("%s delta Reset = %d, want %d", kind, got, want)
		}
		cand := []int{1, 0, 2, 3, 4}
		proposed := de.Propose(cand, []int{0, 1})
		if got := de.Cost(seq); got != want {
			t.Errorf("%s delta Cost = %d, want %d", kind, got, want)
		}
		de.Commit()
		if got := de.Propose(cand, nil); got != proposed {
			t.Errorf("%s: committed cost %d after a stateless Cost, want %d", kind, got, proposed)
		}
	}
}

func TestInitialTemperature(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := NewEvaluator(in)
	t0 := InitialTemperature(eval, xrand.New(1), 2000)
	if t0 <= 0 {
		t.Fatalf("T0 = %v, want > 0", t0)
	}
	// Deterministic for a fixed stream.
	if again := InitialTemperature(NewEvaluator(in), xrand.New(1), 2000); again != t0 {
		t.Errorf("T0 not deterministic: %v vs %v", t0, again)
	}
	// Different samples change the estimate (different draws), but stay
	// the same order of magnitude as the fitness spread.
	small := InitialTemperature(NewEvaluator(in), xrand.New(2), 50)
	if small <= 0 || small > 100*t0 {
		t.Errorf("small-sample T0 implausible: %v (full %v)", small, t0)
	}
}

func TestInitialTemperatureDegenerate(t *testing.T) {
	// One job: every sequence identical, stddev 0 → fallback T0 = 1.
	in, err := problem.NewCDD("one", []int{3}, []int{2}, []int{2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t0 := InitialTemperature(NewEvaluator(in), xrand.New(3), 100); t0 != 1 {
		t.Errorf("degenerate T0 = %v, want fallback 1", t0)
	}
}

func TestRandomSolution(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := NewEvaluator(in)
	seq, cost := RandomSolution(eval, xrand.New(4))
	if !problem.IsPermutation(seq) {
		t.Error("random solution is not a permutation")
	}
	if cost != eval.Cost(seq) {
		t.Errorf("cached cost %d != %d", cost, eval.Cost(seq))
	}
}

func TestPercentDeviation(t *testing.T) {
	cases := []struct {
		z, zBest int64
		want     float64
	}{
		{110, 100, 10},
		{95, 100, -5},
		{100, 100, 0},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := PercentDeviation(c.z, c.zBest); got != c.want {
			t.Errorf("PercentDeviation(%d,%d) = %v, want %v", c.z, c.zBest, got, c.want)
		}
	}
	if !math.IsInf(PercentDeviation(5, 0), 1) {
		t.Error("z>0 with zBest=0 should be +Inf")
	}
}

type fixedSolver struct {
	name string
	cost int64
}

func (f fixedSolver) Name() string { return f.name }
func (f fixedSolver) Solve(ctx context.Context, in *problem.Instance) (Result, error) {
	return Result{BestCost: f.cost, BestSeq: []int{0}}, nil
}

func TestBestOf(t *testing.T) {
	idx, best, err := BestOf(context.Background(), nil, fixedSolver{"a", 30}, fixedSolver{"b", 10}, fixedSolver{"c", 20})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || best.BestCost != 10 {
		t.Errorf("BestOf picked %d (%d), want 1 (10)", idx, best.BestCost)
	}
	if _, _, err := BestOf(context.Background(), nil); err == nil {
		t.Error("BestOf() with no solvers should error")
	}
}

func TestResultSchedule(t *testing.T) {
	in := problem.PaperExample(problem.UCDDCP)
	res := Result{BestSeq: problem.IdentitySequence(5), BestCost: 77}
	sched := res.Schedule(in)
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
	if got := sched.Cost(in); got != 77 {
		t.Errorf("materialized schedule costs %d, want 77", got)
	}
	if sched.X == nil {
		t.Error("UCDDCP schedule should carry compressions")
	}

	inC := problem.PaperExample(problem.CDD)
	resC := Result{BestSeq: problem.IdentitySequence(5), BestCost: 81}
	schedC := resC.Schedule(inC)
	if got := schedC.Cost(inC); got != 81 {
		t.Errorf("CDD schedule costs %d, want 81", got)
	}
	if schedC.X != nil {
		t.Error("CDD schedule should not carry compressions")
	}
}

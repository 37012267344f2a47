package duedate_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	duedate "repro"
)

func TestPaperExampleThroughPublicAPI(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	sched, cost, err := duedate.OptimizeSequence(in, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 81 {
		t.Errorf("CDD paper example cost = %d, want 81", cost)
	}
	if sched.Start != 5 {
		t.Errorf("start = %d, want 5", sched.Start)
	}
	if got := sched.Cost(in); got != 81 {
		t.Errorf("schedule re-evaluates to %d", got)
	}

	inU := duedate.PaperExample(duedate.UCDDCP)
	_, costU, err := duedate.OptimizeSequence(inU, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if costU != 77 {
		t.Errorf("UCDDCP paper example cost = %d, want 77", costU)
	}
}

func TestSolveDefaultsOnSmallInstance(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	res, err := duedate.Solve(in, duedate.Options{
		Iterations: 100, Grid: 1, Block: 16, TempSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := duedate.Cost(in, res.BestSeq)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.BestCost {
		t.Errorf("result cost %d, sequence evaluates to %d", res.BestCost, got)
	}
	if res.BestCost > 81 {
		t.Errorf("GPU SA best %d, expected ≤ 81", res.BestCost)
	}
	if res.SimSeconds <= 0 {
		t.Error("GPU engine reported no simulated time")
	}
}

// pairingHasKind reports whether the pairing declares the problem kind;
// capability-scoped drivers (EXACT-DP) sit out the kinds they lack.
func pairingHasKind(p duedate.Pairing, k duedate.Kind) bool {
	for _, have := range p.Kinds {
		if have == k {
			return true
		}
	}
	return false
}

func TestSolveAllAlgorithmEngineCombos(t *testing.T) {
	in := duedate.PaperExample(duedate.UCDDCP)
	for _, c := range duedate.Pairings() {
		c := c
		t.Run(c.Algorithm.String()+"/"+c.Engine.String(), func(t *testing.T) {
			if !pairingHasKind(c, duedate.UCDDCP) {
				t.Skipf("%v does not declare UCDDCP", c.Algorithm)
			}
			res, err := duedate.Solve(in, duedate.Options{
				Algorithm: c.Algorithm, Engine: c.Engine,
				Iterations: 40, Grid: 1, Block: 8, TempSamples: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := duedate.Cost(in, res.BestSeq)
			if err != nil {
				t.Fatal(err)
			}
			if got != res.BestCost {
				t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
			}
		})
	}
}

// TestFacadeMetrics: every registered pairing must populate
// Result.Metrics when asked (with an evaluation count that matches the
// result's) and leave it nil at the default level.
func TestFacadeMetrics(t *testing.T) {
	paper := duedate.PaperExample(duedate.CDD)
	// The paper example's general asymmetric weights sit outside the DP's
	// agreeable domain, so the exact pairing gets a symmetric-weight
	// unrestricted instance it can certify.
	agreeable, err := duedate.NewCDDInstance("agreeable-metrics",
		[]int{3, 1, 4, 2, 5, 2, 6}, []int{2, 1, 3, 2, 4, 1, 5}, []int{2, 1, 3, 2, 4, 1, 5}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range duedate.Pairings() {
		c := c
		t.Run(c.Algorithm.String()+"/"+c.Engine.String(), func(t *testing.T) {
			in := paper
			if c.Algorithm == duedate.ExactDP {
				in = agreeable
			}
			base := duedate.Options{
				Algorithm: c.Algorithm, Engine: c.Engine,
				Iterations: 40, Grid: 1, Block: 8, TempSamples: 50, Seed: 5,
			}
			off, err := duedate.Solve(in, base)
			if err != nil {
				t.Fatal(err)
			}
			if off.Metrics != nil {
				t.Error("Metrics non-nil at the default (off) level")
			}
			on := base
			on.Metrics = duedate.MetricsCounters
			res, err := duedate.Solve(in, on)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m == nil {
				t.Fatal("Metrics nil with counters level requested")
			}
			if m.Level != duedate.MetricsCounters {
				t.Errorf("Level = %v, want counters", m.Level)
			}
			if m.Evaluations != res.Evaluations {
				t.Errorf("Metrics.Evaluations %d != Result.Evaluations %d", m.Evaluations, res.Evaluations)
			}
			if res.BestCost != off.BestCost || res.Evaluations != off.Evaluations {
				t.Errorf("metrics collection changed the run: %d/%d vs %d/%d",
					res.BestCost, res.Evaluations, off.BestCost, off.Evaluations)
			}
			if m.Chains <= 0 || m.Workers <= 0 {
				t.Errorf("geometry unset: chains=%d workers=%d", m.Chains, m.Workers)
			}
		})
	}
}

// TestMetricsFullDeltaSplit pins the counter contract of core.Metrics:
// on an uninterrupted counters-level solve, every evaluation is counted
// as either full or delta — engines that do not distinguish report
// everything as full — for every registered pairing on every kind it
// declares.
func TestMetricsFullDeltaSplit(t *testing.T) {
	earlyWork, err := duedate.NewEarlyWorkInstance("split-earlywork", []int{6, 5, 2, 4, 4}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	instances := map[duedate.Kind]*duedate.Instance{
		duedate.CDD:       duedate.PaperExample(duedate.CDD),
		duedate.UCDDCP:    duedate.PaperExample(duedate.UCDDCP),
		duedate.EARLYWORK: earlyWork,
	}
	for _, p := range duedate.Pairings() {
		for _, kind := range p.Kinds {
			in := instances[kind]
			if p.Algorithm == duedate.ExactDP && kind == duedate.CDD {
				in = agreeableInstance(t, "split-agreeable", 12, false)
			}
			t.Run(p.Algorithm.String()+"/"+p.Engine.String()+"/"+kind.String(), func(t *testing.T) {
				res, err := duedate.Solve(in, duedate.Options{
					Algorithm: p.Algorithm, Engine: p.Engine,
					Iterations: 30, Grid: 1, Block: 8, TempSamples: 50, Seed: 9,
					Metrics: duedate.MetricsCounters,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Interrupted || res.Metrics == nil {
					t.Fatalf("interrupted=%v metrics=%v on an undeadlined counters solve", res.Interrupted, res.Metrics)
				}
				m := res.Metrics
				if m.FullEvaluations+m.DeltaEvaluations != res.Evaluations {
					t.Errorf("full %d + delta %d != Result.Evaluations %d",
						m.FullEvaluations, m.DeltaEvaluations, res.Evaluations)
				}
			})
		}
	}
}

func TestSolveRejectsGPUBaselines(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	for _, algo := range []duedate.Algorithm{duedate.TA, duedate.ES} {
		_, err := duedate.Solve(in, duedate.Options{Algorithm: algo, Engine: duedate.EngineGPU})
		if !errors.Is(err, duedate.ErrUnsupportedPairing) {
			t.Errorf("%v on GPU: err = %v, want ErrUnsupportedPairing", algo, err)
		}
	}
}

func TestSolveValidatesInstance(t *testing.T) {
	bad := duedate.PaperExample(duedate.CDD)
	bad.D = -4
	if _, err := duedate.Solve(bad, duedate.Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestOptimizeSequenceRejections(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	if _, _, err := duedate.OptimizeSequence(in, []int{0, 1, 2}); !errors.Is(err, duedate.ErrInvalidSequence) {
		t.Errorf("short sequence: err = %v, want ErrInvalidSequence", err)
	}
	if _, _, err := duedate.OptimizeSequence(in, []int{0, 0, 1, 2, 3}); !errors.Is(err, duedate.ErrInvalidSequence) {
		t.Errorf("non-permutation: err = %v, want ErrInvalidSequence", err)
	}
}

// TestOptimizeSequenceProperty checks the facade's second-layer entry
// point on random genomes for every kind on one, two and three
// machines: the returned schedule validates, it re-evaluates to the
// returned cost, which Cost reports too, and single-machine schedules
// keep Assign and Starts nil so their wire form is unchanged.
func TestOptimizeSequenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []duedate.Kind{duedate.CDD, duedate.UCDDCP, duedate.EARLYWORK} {
		for machines := 1; machines <= 3; machines++ {
			for trial := 0; trial < 20; trial++ {
				in := randomFacadeInstance(t, rng, kind, machines)
				genome := rng.Perm(in.GenomeLen())
				sched, cost, err := duedate.OptimizeSequence(in, genome)
				if err != nil {
					t.Fatalf("%s m=%d: %v", kind, machines, err)
				}
				if err := sched.Validate(in); err != nil {
					t.Fatalf("%s m=%d genome %v: invalid schedule: %v", kind, machines, genome, err)
				}
				if got := sched.Cost(in); got != cost {
					t.Errorf("%s m=%d genome %v: schedule re-evaluates to %d, returned %d", kind, machines, genome, got, cost)
				}
				if got, err := duedate.Cost(in, genome); err != nil || got != cost {
					t.Errorf("%s m=%d genome %v: Cost = %d (%v), OptimizeSequence %d", kind, machines, genome, got, err, cost)
				}
				if machines == 1 && (sched.Assign != nil || sched.Starts != nil) {
					t.Errorf("%s m=1: Assign %v / Starts %v, want nil", kind, sched.Assign, sched.Starts)
				}
			}
		}
	}
}

// randomFacadeInstance draws a small valid instance of the kind on the
// given machine count: p ∈ [1,9], penalties ∈ [0,9], and for UCDDCP
// m ∈ [1,p], γ ∈ [0,5] with the kind's unrestricted due date d ≥ ΣP.
func randomFacadeInstance(t *testing.T, rng *rand.Rand, kind duedate.Kind, machines int) *duedate.Instance {
	t.Helper()
	n := 1 + rng.Intn(7)
	p, m, alpha, beta, gamma := make([]int, n), make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	sum := 0
	for i := range p {
		p[i] = 1 + rng.Intn(9)
		m[i] = 1 + rng.Intn(p[i])
		alpha[i], beta[i], gamma[i] = rng.Intn(10), rng.Intn(10), rng.Intn(6)
		sum += p[i]
	}
	var in *duedate.Instance
	var err error
	switch kind {
	case duedate.CDD:
		in, err = duedate.NewCDDInstance("prop-cdd", p, alpha, beta, int64(rng.Intn(sum+1)))
	case duedate.UCDDCP:
		in, err = duedate.NewUCDDCPInstance("prop-ucddcp", p, m, alpha, beta, gamma, int64(sum+rng.Intn(sum+1)))
	default:
		in, err = duedate.NewEarlyWorkInstance("prop-earlywork", p, machines, int64(1+rng.Intn(sum)))
	}
	if err != nil {
		t.Fatal(err)
	}
	in.Machines = machines
	return in
}

func TestBenchmarkGenerators(t *testing.T) {
	cddIns, err := duedate.GenerateCDDBenchmark(20, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cddIns) != 8 {
		t.Errorf("CDD benchmark size = %d, want 8 (2 records × 4 h)", len(cddIns))
	}
	uIns, err := duedate.GenerateUCDDCPBenchmark(20, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(uIns) != 3 {
		t.Errorf("UCDDCP benchmark size = %d, want 3", len(uIns))
	}
}

func TestEnumStrings(t *testing.T) {
	if duedate.SA.String() != "SA" || duedate.DPSO.String() != "DPSO" {
		t.Error("Algorithm.String broken")
	}
	if duedate.EngineGPU.String() != "gpu" {
		t.Error("Engine.String broken")
	}
	if !strings.Contains(duedate.Algorithm(9).String(), "9") {
		t.Error("unknown algorithm formatting broken")
	}
	if !strings.Contains(duedate.Engine(9).String(), "9") {
		t.Error("unknown engine formatting broken")
	}
}

func TestOptionsRejectNegativeGeometry(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	cases := []duedate.Options{
		{Grid: -1, Block: 8},
		{Grid: 1, Block: -8},
		{Engine: duedate.EngineCPUParallel, Workers: -2},
	}
	for _, o := range cases {
		if _, err := duedate.Solve(in, o); !errors.Is(err, duedate.ErrInvalidOptions) {
			t.Errorf("options %+v: err = %v, want ErrInvalidOptions", o, err)
		}
	}
}

func TestSeedZeroSentinelEqualsSeedOne(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	base := duedate.Options{Iterations: 60, Grid: 1, Block: 8, TempSamples: 50}
	zero := base
	zero.Seed = 0
	one := base
	one.Seed = 1
	a, err := duedate.Solve(in, zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := duedate.Solve(in, one)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Evaluations != b.Evaluations {
		t.Errorf("seed 0 (%d/%d) differs from seed 1 (%d/%d)",
			a.BestCost, a.Evaluations, b.BestCost, b.Evaluations)
	}
}

func TestWorkersOptionKeepsDeterminism(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	base := duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel,
		Iterations: 60, Grid: 1, Block: 16, TempSamples: 50, Seed: 4,
	}
	limited := base
	limited.Workers = 1
	a, err := duedate.Solve(in, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := duedate.Solve(in, limited)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Evaluations != b.Evaluations {
		t.Errorf("Workers changed the result: %d/%d vs %d/%d",
			a.BestCost, a.Evaluations, b.BestCost, b.Evaluations)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := duedate.SolveContext(ctx, in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel,
		Iterations: 1 << 20, Grid: 4, Block: 16, TempSamples: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled SolveContext did not report Interrupted")
	}
	got, err := duedate.Cost(in, res.BestSeq)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.BestCost {
		t.Errorf("interrupted best reported %d, evaluates to %d", res.BestCost, got)
	}
}

// TestDeadlineOptionInterrupts: SolveContext is the one place
// Options.Deadline is applied, so every registered pairing must honour an
// already-expired deadline on every kind it declares — Interrupted set,
// and a genome that re-evaluates to the reported cost.
func TestDeadlineOptionInterrupts(t *testing.T) {
	earlyWork, err := duedate.NewEarlyWorkInstance("deadline-earlywork", []int{6, 5, 2, 4, 4}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	instances := map[duedate.Kind]*duedate.Instance{
		duedate.CDD:       duedate.PaperExample(duedate.CDD),
		duedate.UCDDCP:    duedate.PaperExample(duedate.UCDDCP),
		duedate.EARLYWORK: earlyWork,
	}
	for _, p := range duedate.Pairings() {
		for _, kind := range p.Kinds {
			in := instances[kind]
			if p.Algorithm == duedate.ExactDP && kind == duedate.CDD {
				// The paper example has no agreeable ratio order, which
				// the DP would decline before it looks at the deadline.
				in = agreeableInstance(t, "deadline-agreeable", 12, false)
			}
			t.Run(p.Algorithm.String()+"/"+p.Engine.String()+"/"+kind.String(), func(t *testing.T) {
				res, err := duedate.Solve(in, duedate.Options{
					Algorithm: p.Algorithm, Engine: p.Engine,
					Iterations: 1 << 20, Grid: 2, Block: 16, TempSamples: 50,
					Deadline: time.Now().Add(-time.Second),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Interrupted {
					t.Fatal("expired Deadline did not report Interrupted")
				}
				got, err := duedate.Cost(in, res.BestSeq)
				if err != nil {
					t.Fatal(err)
				}
				if got != res.BestCost {
					t.Errorf("interrupted best reported %d, evaluates to %d", res.BestCost, got)
				}
			})
		}
	}
}

func TestProgressThroughFacade(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	var snaps []duedate.Snapshot
	res, err := duedate.Solve(in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUSerial,
		Iterations: 60, Grid: 1, Block: 8, TempSamples: 50,
		Progress: func(s duedate.Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots received")
	}
	last := snaps[len(snaps)-1]
	if last.BestCost != res.BestCost {
		t.Errorf("final snapshot cost %d, result %d", last.BestCost, res.BestCost)
	}
	if last.Evaluations != res.Evaluations {
		t.Errorf("final snapshot evaluations %d, result %d", last.Evaluations, res.Evaluations)
	}
}

func TestBaselinesHonorParallelEngine(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	for _, algo := range []duedate.Algorithm{duedate.TA, duedate.ES} {
		serial, err := duedate.Solve(in, duedate.Options{
			Algorithm: algo, Engine: duedate.EngineCPUSerial,
			Iterations: 50, Grid: 1, Block: 8, TempSamples: 50, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := duedate.Solve(in, duedate.Options{
			Algorithm: algo, Engine: duedate.EngineCPUParallel,
			Iterations: 50, Grid: 1, Block: 8, TempSamples: 50, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if serial.BestCost != par.BestCost || serial.Evaluations != par.Evaluations {
			t.Errorf("%v: serial %d/%d != parallel %d/%d (chain i must own stream i on both engines)",
				algo, serial.BestCost, serial.Evaluations, par.BestCost, par.Evaluations)
		}
	}
}

// TestSolveContextOptionValidation is the table-driven contract test of
// the facade's option gate: every invalid Options value must be rejected
// by SolveContext itself — before any engine runs — with an error that
// satisfies errors.Is(err, ErrInvalidOptions), across every algorithm.
func TestSolveContextOptionValidation(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	cases := []struct {
		name string
		opts duedate.Options
	}{
		{"negative-grid", duedate.Options{Grid: -1}},
		{"negative-block", duedate.Options{Block: -192}},
		{"negative-workers", duedate.Options{Engine: duedate.EngineCPUSerial, Workers: -1}},
		{"negative-grid-cpu", duedate.Options{Engine: duedate.EngineCPUParallel, Grid: -4}},
		{"all-negative", duedate.Options{Grid: -1, Block: -1, Workers: -1}},
		{"non-finite-cooling", duedate.Options{Cooling: math.NaN()}},
	}
	for _, tc := range cases {
		for _, algo := range []duedate.Algorithm{duedate.SA, duedate.DPSO, duedate.TA, duedate.ES} {
			o := tc.opts
			o.Algorithm = algo
			_, err := duedate.SolveContext(context.Background(), in, o)
			if !errors.Is(err, duedate.ErrInvalidOptions) {
				t.Errorf("%s/%v: err = %v, want ErrInvalidOptions", tc.name, algo, err)
			}
			// Option validation must precede pairing dispatch: a bad
			// option on an unregistered pairing still reports the option.
			if errors.Is(err, duedate.ErrUnsupportedPairing) {
				t.Errorf("%s/%v: pairing error before option validation", tc.name, algo)
			}
		}
	}
}

// TestSolveContextSeedZeroSentinel: the Seed-0 "unset" sentinel must be
// rewritten to 1 on the SolveContext path too, for every engine class —
// bit-identical runs, not merely equal costs.
func TestSolveContextSeedZeroSentinel(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	engines := []duedate.Engine{duedate.EngineGPU, duedate.EngineCPUParallel, duedate.EngineCPUSerial}
	for _, eng := range engines {
		base := duedate.Options{Engine: eng, Iterations: 40, Grid: 1, Block: 4, TempSamples: 20}
		zero := base
		zero.Seed = 0
		one := base
		one.Seed = 1
		a, err := duedate.SolveContext(context.Background(), in, zero)
		if err != nil {
			t.Fatal(err)
		}
		b, err := duedate.SolveContext(context.Background(), in, one)
		if err != nil {
			t.Fatal(err)
		}
		if a.BestCost != b.BestCost || a.Evaluations != b.Evaluations ||
			!equalSeq(a.BestSeq, b.BestSeq) {
			t.Errorf("%v: seed 0 run (cost %d, evals %d, seq %v) differs from seed 1 (cost %d, evals %d, seq %v)",
				eng, a.BestCost, a.Evaluations, a.BestSeq, b.BestCost, b.Evaluations, b.BestSeq)
		}
	}
}

func equalSeq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

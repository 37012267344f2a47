// Integration tests across module boundaries: benchmark files round-trip
// through the OR-library format into solvers, every engine agrees with
// the exact oracles on small instances, GPU and CPU ensembles produce
// statistically comparable quality, and the two problems compose (a
// UCDDCP instance with zero compression capacity must optimize exactly
// like its CDD projection).
package duedate_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/harness"
	"repro/internal/lpref"
	"repro/internal/orlib"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/stats"
	"repro/internal/verify"
)

// TestBenchmarkFileToSolverFlow drives the genbench → file → reader →
// solver path end to end through a temp directory.
func TestBenchmarkFileToSolverFlow(t *testing.T) {
	dir := t.TempDir()
	raws := orlib.GenerateCDD(25, 3, 99)
	path := filepath.Join(dir, "sch25.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orlib.WriteCDD(f, raws); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	back, err := orlib.ReadCDD(g, 25)
	if err != nil {
		t.Fatal(err)
	}
	in, err := orlib.CDDInstance(back[1], 25, 1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := duedate.Solve(in, duedate.Options{
		Iterations: 200, Grid: 2, Block: 16, TempSamples: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := duedate.Cost(in, res.BestSeq)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.BestCost {
		t.Errorf("solver reported %d, sequence costs %d", res.BestCost, got)
	}
}

// TestAllEnginesAgreeWithExactOracle runs every engine on one small
// unrestricted instance where the global optimum is known exactly; every
// engine must reach it (tiny search space, healthy budgets).
func TestAllEnginesAgreeWithExactOracle(t *testing.T) {
	ins, err := orlib.BenchmarkCDD(7, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[3].Clone() // h = 0.8
	in.D = in.SumP() + 5 // make it unrestricted so SubsetCDD applies
	opt, err := exact.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered pairing runs, with per-algorithm budgets (ES
	// converges on smaller populations; the others share one shape).
	budgets := map[duedate.Algorithm]duedate.Options{
		duedate.SA:   {Iterations: 300, Grid: 2, Block: 16, TempSamples: 200},
		duedate.DPSO: {Iterations: 300, Grid: 2, Block: 16},
		duedate.TA:   {Iterations: 300, Grid: 1, Block: 8, TempSamples: 200},
		duedate.ES:   {Iterations: 120, Grid: 1, Block: 4},
		// AUTO model-routes this shape (no deadline, DP declines the
		// asymmetric weights) to its calibrated static pairing, so the SA
		// budget shape exercises the passthrough dispatch end to end.
		duedate.Auto: {Iterations: 300, Grid: 2, Block: 16, TempSamples: 200},
	}
	var opts []duedate.Options
	for _, p := range duedate.Pairings() {
		if p.Algorithm == duedate.ExactDP {
			// The DP's provable domain needs an agreeable ratio order and
			// this orlib draw has general asymmetric weights; the verify
			// subsystem's dedicated DP leg covers the exact layer instead.
			continue
		}
		o := budgets[p.Algorithm]
		o.Algorithm, o.Engine = p.Algorithm, p.Engine
		opts = append(opts, o)
	}
	for _, o := range opts {
		o.Seed = 7
		res, err := duedate.Solve(in, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost < opt.Cost {
			t.Fatalf("%v/%v: %d beats the exact optimum %d — solver or oracle bug",
				o.Algorithm, o.Engine, res.BestCost, opt.Cost)
		}
		if res.BestCost != opt.Cost {
			t.Errorf("%v/%v: %d missed the exact optimum %d on n=7",
				o.Algorithm, o.Engine, res.BestCost, opt.Cost)
		}
	}
}

// TestGPUAndCPUEnsemblesStatisticallyComparable: across seeds, the GPU
// pipeline's best costs and the CPU ensemble's best costs must come from
// the same quality regime (means within 10%) — they run the same
// algorithm, differing only in RNG stream usage details.
func TestGPUAndCPUEnsemblesStatisticallyComparable(t *testing.T) {
	ins, err := orlib.BenchmarkCDD(40, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[2]
	cfg := sa.Config{Iterations: 150, TempSamples: 200}
	var gpu, cpu []float64
	for seed := uint64(1); seed <= 8; seed++ {
		g := solveOK(t, &parallel.GPUSA{SA: cfg, Grid: 2, Block: 8, Seed: seed}, in)
		c := solveOK(t, &parallel.AsyncSA{SA: cfg,
			Ens: parallel.Ensemble{Chains: 16, Seed: seed}, Parallel: true}, in)
		gpu = append(gpu, float64(g.BestCost))
		cpu = append(cpu, float64(c.BestCost))
	}
	gm, cm := stats.Mean(gpu), stats.Mean(cpu)
	if diff := (gm - cm) / cm; diff > 0.10 || diff < -0.10 {
		t.Errorf("GPU mean %f vs CPU mean %f differ by %.1f%%", gm, cm, diff*100)
	}
}

// TestZeroCapacityUCDDCPEqualsCDD: a controllable instance in which no
// job can be compressed must optimize to exactly the same value as the
// CDD instance with the same data, across the whole stack (evaluator, LP
// and GPU solver).
func TestZeroCapacityUCDDCPEqualsCDD(t *testing.T) {
	p := []int{5, 3, 7, 2, 6, 4}
	alpha := []int{4, 2, 7, 1, 3, 5}
	beta := []int{3, 6, 2, 5, 4, 1}
	var sum int64
	for _, v := range p {
		sum += int64(v)
	}
	d := sum + 4
	mEq := append([]int(nil), p...) // M = P: zero capacity
	gamma := []int{1, 1, 1, 1, 1, 1}
	ucd, err := duedate.NewUCDDCPInstance("zc", p, mEq, alpha, beta, gamma, d)
	if err != nil {
		t.Fatal(err)
	}
	cdd, err := duedate.NewCDDInstance("zc-cdd", p, alpha, beta, d)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{3, 1, 5, 0, 4, 2}
	_, cu, err := duedate.OptimizeSequence(ucd, seq)
	if err != nil {
		t.Fatal(err)
	}
	_, cc, err := duedate.OptimizeSequence(cdd, seq)
	if err != nil {
		t.Fatal(err)
	}
	if cu != cc {
		t.Fatalf("zero-capacity UCDDCP %d != CDD %d on the same sequence", cu, cc)
	}
	lpU, err := lpref.Solve(ucd, seq)
	if err != nil {
		t.Fatal(err)
	}
	if lpU.RoundedCost() != cc {
		t.Errorf("LP on zero-capacity UCDDCP = %d, want %d", lpU.RoundedCost(), cc)
	}
	gU, err := duedate.Solve(ucd, duedate.Options{Iterations: 200, Grid: 1, Block: 16, TempSamples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gC, err := duedate.Solve(cdd, duedate.Options{Iterations: 200, Grid: 1, Block: 16, TempSamples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gU.BestCost != gC.BestCost {
		t.Errorf("GPU solvers disagree on equivalent instances: %d vs %d", gU.BestCost, gC.BestCost)
	}
}

// TestUCDDCPNeverWorseThanCDD: allowing compression can only help — for
// any sequence, the UCDDCP optimum is ≤ the CDD optimum of the
// uncompressed data.
func TestUCDDCPNeverWorseThanCDD(t *testing.T) {
	ins, err := orlib.BenchmarkUCDDCP(20, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, inU := range ins {
		p := make([]int, inU.N())
		alpha := make([]int, inU.N())
		beta := make([]int, inU.N())
		for i, j := range inU.Jobs {
			p[i], alpha[i], beta[i] = j.P, j.Alpha, j.Beta
		}
		inC, err := duedate.NewCDDInstance("proj", p, alpha, beta, inU.D)
		if err != nil {
			t.Fatal(err)
		}
		evalU := core.NewEvaluator(inU)
		evalC := core.NewEvaluator(inC)
		seq := problem.IdentitySequence(inU.N())
		for trial := 0; trial < 20; trial++ {
			if cu, cc := evalU.Cost(seq), evalC.Cost(seq); cu > cc {
				t.Fatalf("%s: compression hurt: UCDDCP %d > CDD %d", inU.Name, cu, cc)
			}
			// Next permutation via a couple of swaps.
			a, b := trial%inU.N(), (trial*7+3)%inU.N()
			seq[a], seq[b] = seq[b], seq[a]
		}
	}
}

// TestSweepArchiveRegressionFlow exercises the archive → reload →
// compare path the harness offers for tracking quality across versions.
func TestSweepArchiveRegressionFlow(t *testing.T) {
	sw, err := harness.RunSweep(context.Background(), harness.Quick(), problem.CDD, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := harness.ReadSweepJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := harness.CompareSweeps(back, sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if !bytes.Contains([]byte(l), []byte("+0.000")) {
			t.Errorf("self-comparison shows drift: %s", l)
		}
	}
}

// TestDifferentialVerificationOverRegistry runs the cross-engine
// verification subsystem over every registered pairing (enumerated from
// duedate.Pairings() at run time, so a future engine is covered the
// moment it self-registers). A small per-family trial count keeps the
// test quick; `make verify-diff` runs the full sweep.
func TestDifferentialVerificationOverRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	drivers := verify.RegisteredDrivers(verify.Budget{})
	if want := len(duedate.Pairings()); len(drivers) != want {
		t.Fatalf("RegisteredDrivers returned %d drivers, want %d (registry out of sync)", len(drivers), want)
	}
	rep, err := verify.Run(context.Background(), verify.Config{Trials: 2, Seed: 42, MaxN: 7}, drivers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Discrepancies {
		t.Errorf("%s family=%s instance=%s driver=%s: %s", d.Check, d.Family, d.Instance, d.Driver, d.Detail)
	}
	for name, st := range rep.DriverStats {
		if st.Runs == 0 {
			t.Errorf("driver %s never ran", name)
		}
	}
}

// TestInstanceJSONThroughPublicAPI serializes an instance, reloads it and
// solves both copies identically.
func TestInstanceJSONThroughPublicAPI(t *testing.T) {
	in := duedate.PaperExample(duedate.UCDDCP)
	var buf bytes.Buffer
	if err := problem.WriteInstanceJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := problem.ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o := duedate.Options{Iterations: 100, Grid: 1, Block: 8, TempSamples: 50, Seed: 2}
	a, err := duedate.Solve(in, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := duedate.Solve(back, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost {
		t.Errorf("JSON roundtrip changed the solve: %d vs %d", a.BestCost, b.BestCost)
	}
}

package parallel

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dpso"
)

// TestMetricsOffByDefault: the zero-value MetricsLevel must leave
// Result.Metrics nil on every driver — collection is strictly opt-in.
func TestMetricsOffByDefault(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	solvers := map[string]core.Solver{
		"AsyncSA":      &AsyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true},
		"SyncSA":       &SyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, MarkovLen: 5, Levels: 6, Parallel: true},
		"GPUSA":        &GPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6},
		"ParallelDPSO": &ParallelDPSO{PSO: dpso.Config{Iterations: 30}, Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true},
		"GPUDPSO":      &GPUDPSO{PSO: dpso.Config{Iterations: 30}, Grid: 1, Block: 8, Seed: 6},
	}
	for name, s := range solvers {
		r, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Metrics != nil {
			t.Errorf("%s: Metrics non-nil with collection off", name)
		}
	}
}

// TestMetricsEvaluationsDeterministicAcrossWorkers: the metrics counters
// derive from the same fixed-seed trajectories as the results, so they
// must be bit-identical no matter how the chains are scheduled onto
// workers — and must match the engine's own evaluation count (which is
// pinned to the golden 1410 in golden_test.go).
func TestMetricsEvaluationsDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	run := func(parallelOK bool, workers int) *core.Metrics {
		r, err := (&AsyncSA{
			SA: goldenSA(), Ens: Ensemble{Chains: 10, Seed: 3, Workers: workers},
			Parallel: parallelOK, Metrics: core.MetricsCounters,
		}).Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics == nil {
			t.Fatal("Metrics nil with counters level on")
		}
		if r.Metrics.Evaluations != r.Evaluations {
			t.Fatalf("Metrics.Evaluations %d != Result.Evaluations %d", r.Metrics.Evaluations, r.Evaluations)
		}
		return r.Metrics
	}
	base := run(false, 0)
	if base.Evaluations != 1410 {
		t.Errorf("serial Evaluations = %d, want the golden 1410", base.Evaluations)
	}
	if got := base.DeltaEvaluations + base.FullEvaluations; got != base.Evaluations {
		t.Errorf("delta %d + full %d = %d, want Evaluations %d",
			base.DeltaEvaluations, base.FullEvaluations, got, base.Evaluations)
	}
	if base.Acceptances == 0 || base.Improvements == 0 {
		t.Errorf("counters empty: accepts=%d improvements=%d", base.Acceptances, base.Improvements)
	}
	for _, workers := range []int{1, 2, 7} {
		m := run(true, workers)
		if m.Evaluations != base.Evaluations ||
			m.DeltaEvaluations != base.DeltaEvaluations ||
			m.FullEvaluations != base.FullEvaluations ||
			m.Acceptances != base.Acceptances ||
			m.Improvements != base.Improvements {
			t.Errorf("Workers=%d drifted: %+v vs serial %+v", workers, m, base)
		}
	}
}

// TestMetricsKernelPhases: at the kernels level, every phase a driver
// runs must show up with a positive count and nonzero host wall time, and
// GPU drivers must carry simulated device seconds on their kernel phases.
func TestMetricsKernelPhases(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	cases := []struct {
		name      string
		solver    core.Solver
		phases    []string
		simPhases []string // phases that must also report device seconds
	}{
		{
			"AsyncSA",
			&AsyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true, Metrics: core.MetricsKernels},
			[]string{"t0", "chain", "reduce"},
			nil,
		},
		{
			"SyncSA",
			&SyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, MarkovLen: 5, Levels: 6, Parallel: true, Metrics: core.MetricsKernels},
			[]string{"t0", "chain", "reduce", "broadcast"},
			nil,
		},
		{
			"GPUSA",
			&GPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsKernels},
			[]string{"t0", "init", "perturb", "fitness", "accept", "reduce"},
			[]string{"perturb", "fitness", "accept", "reduce"},
		},
		{
			"ParallelDPSO",
			&ParallelDPSO{PSO: dpso.Config{Iterations: 30}, Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true, Metrics: core.MetricsKernels},
			[]string{"init", "update", "reduce"},
			nil,
		},
		{
			"GPUDPSO",
			&GPUDPSO{PSO: dpso.Config{Iterations: 30}, Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsKernels},
			[]string{"init", "update", "fitness", "pbest", "reduce"},
			[]string{"update", "fitness", "reduce"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r, err := c.solver.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			m := r.Metrics
			if m == nil {
				t.Fatal("Metrics nil with kernels level on")
			}
			if m.Level != core.MetricsKernels {
				t.Errorf("Level = %v, want kernels", m.Level)
			}
			for _, name := range c.phases {
				ph := m.Phase(name)
				if ph.Count == 0 {
					t.Errorf("phase %q never counted; have %+v", name, m.Phases)
					continue
				}
				if ph.Wall <= 0 {
					t.Errorf("phase %q has zero wall time over %d runs", name, ph.Count)
				}
			}
			for _, name := range c.simPhases {
				if ph := m.Phase(name); ph.Sim <= 0 {
					t.Errorf("GPU phase %q reports no simulated device seconds", name)
				}
			}
		})
	}
}

// TestMetricsEnsembleAggregates: the ensemble runtime must report worker
// busy time and a utilization in (0, 1].
func TestMetricsEnsembleAggregates(t *testing.T) {
	r, err := (&AsyncSA{
		SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 3, Workers: 2},
		Parallel: true, Metrics: core.MetricsCounters,
	}).Solve(context.Background(), benchInstanceCDD(15))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if m == nil {
		t.Fatal("Metrics nil")
	}
	if m.Chains != 8 || m.Workers != 2 {
		t.Errorf("geometry: chains=%d workers=%d, want 8/2", m.Chains, m.Workers)
	}
	if m.WorkerBusy <= 0 {
		t.Error("no worker busy time recorded")
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("utilization %f outside (0,1]", m.Utilization)
	}
	if m.InterruptedAt != "" {
		t.Errorf("uninterrupted run reports boundary %q", m.InterruptedAt)
	}
}

// TestMetricsInterruptedBoundary: a cancelled run must name the boundary
// it stopped at.
func TestMetricsInterruptedBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := (&AsyncSA{
		SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 3},
		Parallel: true, Metrics: core.MetricsCounters,
	}).Solve(ctx, benchInstanceCDD(15))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if r.Metrics == nil || r.Metrics.InterruptedAt != "chain" {
		t.Errorf("InterruptedAt = %v, want \"chain\"", r.Metrics)
	}
}

// BenchmarkMetricsLevels measures the instrumentation overhead on the
// CPU hot path. The metrics-off run must stay within a few percent of the
// pre-instrumentation baseline (nil collector, plain int64 chain
// counters, no timestamps).
func BenchmarkMetricsLevels(b *testing.B) {
	in := benchInstanceCDD(40)
	for _, lvl := range []core.MetricsLevel{core.MetricsOff, core.MetricsCounters, core.MetricsKernels} {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := (&AsyncSA{
					SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 3},
					Parallel: false, Metrics: lvl,
				}).Solve(context.Background(), in)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

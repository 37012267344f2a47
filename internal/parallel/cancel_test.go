package parallel

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/problem"
)

// assertInterrupted checks the contract every engine must honor when cut
// short: Interrupted set, a valid permutation, and a reported cost that
// the sequence actually evaluates to.
func assertInterrupted(t *testing.T, in *problem.Instance, res core.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("cancelled Solve returned error: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run did not report Interrupted")
	}
	if !problem.IsPermutation(res.BestSeq) {
		t.Fatalf("interrupted best is not a permutation: %v", res.BestSeq)
	}
	if got := core.NewEvaluator(in).Cost(res.BestSeq); got != res.BestCost {
		t.Errorf("interrupted best reported %d, evaluates to %d", res.BestCost, got)
	}
}

// cancelOnFirstSnapshot returns a context plus a ProgressFunc that
// cancels it: the engines emit a snapshot on the first ensemble-best
// improvement, so the cancellation deterministically lands mid-run —
// after some work has produced a best-so-far, before the budget is
// exhausted.
func cancelOnFirstSnapshot() (context.Context, core.ProgressFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(core.Snapshot) { cancel() }
}

// TestAsyncSACancelMidRun cancels from the first progress snapshot (the
// first completed chain). The runtime must skip the chains not yet
// started and reduce over the completed ones.
func TestAsyncSACancelMidRun(t *testing.T) {
	in := benchInstanceCDD(15)
	ctx, progress := cancelOnFirstSnapshot()
	s := &AsyncSA{SA: smallSA(), Parallel: true, Progress: progress,
		Ens: Ensemble{Chains: 64, Seed: 1, Workers: 2}}
	res, err := s.Solve(ctx, in)
	assertInterrupted(t, in, res, err)
	if res.Evaluations <= 0 {
		t.Error("no evaluations recorded from the completed chains")
	}
}

// TestSyncSACancelMidRun cancels from the first post-level snapshot; the
// driver must break at the next level boundary and fold the chains'
// bests so far.
func TestSyncSACancelMidRun(t *testing.T) {
	in := benchInstanceCDD(15)
	ctx, progress := cancelOnFirstSnapshot()
	s := &SyncSA{SA: smallSA(), Parallel: true, Progress: progress,
		Ens: Ensemble{Chains: 8, Seed: 5, Workers: 2}, MarkovLen: 5, Levels: 1000}
	res, err := s.Solve(ctx, in)
	assertInterrupted(t, in, res, err)
}

// TestParallelDPSOCancelMidRun cancels from the first snapshot (the
// initialization reduce); the driver must stop at the next generation
// barrier with the swarm best so far.
func TestParallelDPSOCancelMidRun(t *testing.T) {
	in := benchInstanceCDD(15)
	cfg := dpso.DefaultConfig()
	cfg.Iterations = 1000
	ctx, progress := cancelOnFirstSnapshot()
	s := &ParallelDPSO{PSO: cfg, Parallel: true, Progress: progress,
		Ens: Ensemble{Chains: 8, Seed: 2, Workers: 2}}
	res, err := s.Solve(ctx, in)
	assertInterrupted(t, in, res, err)
}

// TestGPUSACancelMidRun cancels from the first post-reduction snapshot;
// the pipeline must break at the next host iteration and re-reduce the
// per-thread bests accumulated so far.
func TestGPUSACancelMidRun(t *testing.T) {
	in := benchInstanceCDD(15)
	cfg := smallSA()
	cfg.Iterations = 1000
	ctx, progress := cancelOnFirstSnapshot()
	s := &GPUSA{SA: cfg, Grid: 1, Block: 8, Seed: 6, Progress: progress}
	res, err := s.Solve(ctx, in)
	assertInterrupted(t, in, res, err)
}

// TestGPUDPSOCancelMidRun does the same for the DPSO pipeline.
func TestGPUDPSOCancelMidRun(t *testing.T) {
	in := benchInstanceCDD(15)
	cfg := dpso.DefaultConfig()
	cfg.Iterations = 1000
	ctx, progress := cancelOnFirstSnapshot()
	s := &GPUDPSO{PSO: cfg, Grid: 1, Block: 8, Seed: 2, Progress: progress}
	res, err := s.Solve(ctx, in)
	assertInterrupted(t, in, res, err)
}

// TestExpiredDeadlinePromptReturn hands every driver a context whose
// deadline already passed, with an iteration budget large enough that
// actually running it would blow the test timeout. Each must return
// promptly with Interrupted set and a valid best (the identity-sequence
// fallback when not even one chain completed, the initialization bests
// on the GPU engines).
func TestExpiredDeadlinePromptReturn(t *testing.T) {
	in := benchInstanceCDD(15)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	saCfg := smallSA()
	saCfg.Iterations = 1 << 20
	psoCfg := dpso.DefaultConfig()
	psoCfg.Iterations = 1 << 20
	solvers := []core.Solver{
		&AsyncSA{SA: saCfg, Ens: Ensemble{Chains: 16, Seed: 1}, Parallel: true},
		&AsyncSA{SA: saCfg, Ens: Ensemble{Chains: 16, Seed: 1}, Parallel: false},
		&SyncSA{SA: saCfg, Ens: Ensemble{Chains: 8, Seed: 5}, MarkovLen: 5, Levels: 1 << 20, Parallel: true},
		&ParallelDPSO{PSO: psoCfg, Ens: Ensemble{Chains: 8, Seed: 2}, Parallel: true},
		&GPUSA{SA: saCfg, Grid: 1, Block: 8, Seed: 6},
		&GPUDPSO{PSO: psoCfg, Grid: 1, Block: 8, Seed: 2},
	}
	for _, s := range solvers {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			res, err := s.Solve(expired, in)
			assertInterrupted(t, in, res, err)
		})
	}
}

// TestAsyncSAIdentityFallback pins the zero-chains-completed path: a
// pre-cancelled context must yield the identity sequence with its exact
// cost (one fallback evaluation), not an empty result.
func TestAsyncSAIdentityFallback(t *testing.T) {
	in := benchInstanceCDD(15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := (&AsyncSA{SA: smallSA(), Ens: Ensemble{Chains: 8, Seed: 1}, Parallel: false}).Solve(ctx, in)
	assertInterrupted(t, in, res, err)
	want := problem.IdentitySequence(in.N())
	for i, v := range res.BestSeq {
		if v != want[i] {
			t.Fatalf("fallback sequence is not the identity: %v", res.BestSeq)
		}
	}
	if res.Evaluations != 1 {
		t.Errorf("fallback evaluations = %d, want 1", res.Evaluations)
	}
}

// TestCancelledBudgetKeepsDeterminism: an uncancelled context must leave
// results bit-identical whether or not a (future) deadline was attached —
// the deadline plumbing itself may not disturb trajectories.
func TestCancelledBudgetKeepsDeterminism(t *testing.T) {
	in := benchInstanceCDD(15)
	plain, err := (&AsyncSA{SA: smallSA(), Ens: Ensemble{Chains: 10, Seed: 3}, Parallel: true}).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	budgeted, err := (&AsyncSA{SA: smallSA(), Ens: Ensemble{Chains: 10, Seed: 3}, Parallel: true}).Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Interrupted {
		t.Error("run with a distant deadline reported Interrupted")
	}
	if plain.BestCost != budgeted.BestCost || plain.Evaluations != budgeted.Evaluations {
		t.Errorf("deadline plumbing changed the result: %d/%d vs %d/%d",
			plain.BestCost, plain.Evaluations, budgeted.BestCost, budgeted.Evaluations)
	}
}

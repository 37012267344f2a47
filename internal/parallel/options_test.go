package parallel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heuristic"
)

// TestPAccessModesIdenticalResults: the processing-time access mode is a
// pure timing-model choice — optimization results must be bit-identical
// across all three modes, while the simulated times differ.
func TestPAccessModesIdenticalResults(t *testing.T) {
	in := benchInstanceCDD(40)
	cfg := smallSA()
	cfg.Iterations = 60
	run := func(mode PAccess) core.Result {
		return solveOK(t, &GPUSA{
			SA: cfg, Grid: 2, Block: 16, Seed: 9,
			PTimeAccess: mode,
		}, in)
	}
	coal := run(PAccessCoalesced)
	scat := run(PAccessScattered)
	tex := run(PAccessTexture)
	if coal.BestCost != scat.BestCost || coal.BestCost != tex.BestCost {
		t.Fatalf("access modes changed results: %d / %d / %d", coal.BestCost, scat.BestCost, tex.BestCost)
	}
	if !(scat.SimSeconds > coal.SimSeconds) {
		t.Errorf("scattered reads not slower: %g vs %g", scat.SimSeconds, coal.SimSeconds)
	}
	if !(tex.SimSeconds < scat.SimSeconds) {
		t.Errorf("texture path not faster than scattered: %g vs %g", tex.SimSeconds, scat.SimSeconds)
	}
}

// TestInitialSeqWarmStart: with a warm start, the ensemble's best can
// never be worse than the starting sequence itself (chains keep their
// per-thread bests from the initial state).
func TestInitialSeqWarmStart(t *testing.T) {
	in := benchInstanceCDD(30)
	warm := heuristic.VShape(in)
	eval := core.NewEvaluator(in)
	warmCost := eval.Cost(warm)
	cfg := smallSA()
	cfg.Iterations = 30
	res := solveOK(t, &GPUSA{
		SA: cfg, Grid: 2, Block: 8, Seed: 4,
		InitialSeq: warm,
	}, in)
	if res.BestCost > warmCost {
		t.Errorf("warm-started ensemble (%d) lost its initial solution (%d)", res.BestCost, warmCost)
	}
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
	}
}

// TestDPSOSharedBeatsAsyncHere documents the ablation finding on this
// substrate: with communication, DPSO is at least as good as without, on
// a mid-size instance with a healthy budget.
func TestDPSOSharedBeatsAsyncHere(t *testing.T) {
	in := benchInstanceCDD(60)
	mk := func(share bool) int64 {
		return solveOK(t, &GPUDPSO{
			PSO: dpsoCfg(300), Grid: 2, Block: 24, Seed: 3,
			ShareSwarmBest: share,
		}, in).BestCost
	}
	async, shared := mk(false), mk(true)
	if shared > async {
		t.Errorf("shared-gbest DPSO (%d) worse than asynchronous (%d) — ablation claim violated", shared, async)
	}
}

// TestReduceEveryDoesNotChangeResult: reduction frequency only affects
// when the tracked best is folded; the final answer is identical.
func TestReduceEveryDoesNotChangeResult(t *testing.T) {
	in := benchInstanceCDD(20)
	cfg := smallSA()
	cfg.Iterations = 50
	run := func(every int) int64 {
		return solveOK(t, &GPUSA{
			SA: cfg, Grid: 1, Block: 16, Seed: 5,
			ReduceEvery: every,
		}, in).BestCost
	}
	a, b, c := run(1), run(10), run(50)
	if a != b || a != c {
		t.Errorf("reduce frequency changed results: %d / %d / %d", a, b, c)
	}
}

package parallel

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// ParallelDPSO drives the Discrete PSO with one particle per ensemble
// member. By default it mirrors the paper's asynchronous scheme — the
// particles never communicate, so each one's swarm best is its own
// personal best and the reduction only tracks the reported minimum; with
// ShareSwarmBest every generation's reduced best is broadcast to all
// particles (see GPUDPSO for the rationale). With Parallel=false the
// identical swarm is executed on one goroutine as the CPU-time baseline.
type ParallelDPSO struct {
	Label string
	// PSO holds the particle parameters; its Swarm field is ignored (the
	// ensemble size is the swarm size).
	PSO dpso.Config
	Ens Ensemble
	// Parallel selects the multi-goroutine driver.
	Parallel bool
	// ShareSwarmBest broadcasts the true swarm best each generation
	// instead of the paper's communication-free scheme.
	ShareSwarmBest bool
	// Progress receives a snapshot whenever the swarm best improves.
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default).
	Metrics core.MetricsLevel
}

// Name implements core.Solver.
func (d *ParallelDPSO) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "ParallelDPSO"
}

// Solve runs the configured generations. Results are deterministic for a
// fixed seed regardless of Parallel: particle i always consumes RNG
// stream i and gbest ties resolve to the lowest particle index.
// Cancellation is checked at generation granularity: a done context skips
// the remaining generations and returns the swarm best so far (valid from
// generation zero, since initialization evaluates every particle).
func (d *ParallelDPSO) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	ens := d.Ens.normalized()
	cfg := d.PSO.Normalized()
	start := time.Now()
	n := inst.GenomeLen()

	col := obs.NewCollector(d.Metrics)
	particles := make([]*dpso.Particle, ens.Chains)
	evals := make([]core.Evaluator, ens.Chains)
	phased(col, obs.PhaseInit, func() {
		runOverWorkers(ens.Chains, ens.Workers, d.Parallel, func(i int) {
			evals[i] = core.NewEvaluator(inst)
			particles[i] = dpso.NewParticle(cfg, evals[i], xrand.NewStream(ens.Seed, uint64(i)))
		})
	})
	col.AddFullEvals(int64(ens.Chains))

	// The single-goroutine driver scores the whole population per
	// generation in one batched pass over the SoA snapshot instead of
	// ens.Chains interface calls; per-particle RNG streams and the
	// snapshot/pbest reference rules make the reordering (all moves, then
	// all evaluations, then all adoptions) trajectory-identical to the
	// worker path.
	var batch *core.BatchEvaluator
	var seqs [][]int
	var costs []int64
	if !d.Parallel {
		batch = core.NewBatchEvaluator(inst)
		seqs = make([][]int, ens.Chains)
		costs = make([]int64, ens.Chains)
	}

	red := newReducer(ens.Chains)
	m := newMeter(d.Progress, start, red)
	gbest := make([]int, n)
	gbestCost := int64(1) << 62
	reduce := func() {
		for i, p := range particles {
			if seq, cost := p.Best(); cost < gbestCost {
				gbestCost = cost
				copy(gbest, seq)
				if red.record(i, seq, cost, 0) {
					m.improved()
				}
			}
		}
	}
	phased(col, obs.PhaseReduce, reduce)

	iters := cfg.Iterations
	// In shared mode, particles read the previous generation's gbest
	// (recomputed only after the generation barrier), mirroring the
	// update → fitness → reduce → broadcast kernel sequence of the GPU
	// implementation. In the default asynchronous mode each particle's
	// swarm best is its own personal best.
	gbestSnapshot := make([]int, n)
	generations := 0
	interrupted := false
	for g := 0; g < iters; g++ {
		if ctx.Err() != nil {
			interrupted = true
			col.SetInterruptedAt("generation")
			break
		}
		copy(gbestSnapshot, gbest)
		phased(col, obs.PhaseUpdate, func() {
			if !d.Parallel {
				for i, p := range particles {
					ref := gbestSnapshot
					if !d.ShareSwarmBest {
						ref, _ = p.Best()
					}
					seqs[i] = p.Move(ref)
				}
				batch.CostSeqs(seqs, costs)
				for i, p := range particles {
					if col.Enabled() {
						_, before := p.Best()
						p.Adopt(costs[i])
						// A personal-best refresh is DPSO's acceptance
						// analogue, and it always improves the particle's
						// best-so-far.
						if _, after := p.Best(); after < before {
							col.AddAccepts(1)
							col.AddImprovements(1)
						}
					} else {
						p.Adopt(costs[i])
					}
				}
				return
			}
			runOverWorkers(ens.Chains, ens.Workers, true, func(i int) {
				ref := gbestSnapshot
				if !d.ShareSwarmBest {
					ref, _ = particles[i].Best()
				}
				if col.Enabled() {
					_, before := particles[i].Best()
					particles[i].Update(ref, evals[i])
					// A personal-best refresh is DPSO's acceptance
					// analogue, and it always improves the particle's
					// best-so-far.
					if _, after := particles[i].Best(); after < before {
						col.AddAccepts(1)
						col.AddImprovements(1)
					}
				} else {
					particles[i].Update(ref, evals[i])
				}
			})
		})
		col.AddFullEvals(int64(ens.Chains))
		phased(col, obs.PhaseReduce, reduce)
		generations++
	}

	res := core.Result{
		BestSeq:     gbest,
		BestCost:    gbestCost,
		Iterations:  iters,
		Evaluations: int64(ens.Chains) * int64(generations+1),
		Elapsed:     time.Since(start),
		Interrupted: interrupted,
	}
	if col.Enabled() {
		workers := 1
		if d.Parallel {
			workers = ens.Workers
		}
		res.Metrics = col.Snapshot(res.Evaluations, ens.Chains, workers, res.Elapsed)
	}
	m.final(res)
	return res, nil
}

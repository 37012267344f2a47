package duedate

import (
	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/es"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/ta"
	"repro/internal/xrand"
)

// This file wires every built-in algorithm×engine pairing into the
// facade registry. Each driver translates Options into one engine-layer
// solver; the facade never switches on the pairing, so adding one means
// adding a RegisterDriver call here (or in any other package's init) and
// nothing else.

// ensembleFrom derives the CPU-engine ensemble geometry: Grid·Block
// chains, bounded by Options.Workers when parallel.
func ensembleFrom(o Options) parallel.Ensemble {
	return parallel.Ensemble{Chains: o.Grid * o.Block, Seed: o.Seed, Workers: o.Workers}
}

// saConfigFrom collects the SA tuning knobs.
func saConfigFrom(o Options) sa.Config {
	return sa.Config{
		Iterations:  o.Iterations,
		Cooling:     o.Cooling,
		Pert:        o.Pert,
		TempSamples: o.TempSamples,
	}
}

func init() {
	// SA: the paper's four-kernel GPU pipeline and the CPU ensembles.
	RegisterDriver(SA, EngineGPU, func(o Options) core.Solver {
		return &parallel.GPUSA{
			SA: saConfigFrom(o), Grid: o.Grid, Block: o.Block, Seed: o.Seed,
			Progress: o.Progress, Metrics: o.Metrics,
		}
	})
	saCPU := func(parallelOK bool) Driver {
		return func(o Options) core.Solver {
			return &parallel.AsyncSA{
				SA: saConfigFrom(o), Ens: ensembleFrom(o), Parallel: parallelOK,
				Progress: o.Progress, Metrics: o.Metrics,
			}
		}
	}
	RegisterDriver(SA, EngineCPUParallel, saCPU(true))
	RegisterDriver(SA, EngineCPUSerial, saCPU(false))

	// DPSO: GPU pipeline and CPU swarms.
	RegisterDriver(DPSO, EngineGPU, func(o Options) core.Solver {
		return &parallel.GPUDPSO{
			PSO: dpso.Config{Iterations: o.Iterations}, Grid: o.Grid, Block: o.Block,
			Seed: o.Seed, Progress: o.Progress, Metrics: o.Metrics,
		}
	})
	dpsoCPU := func(parallelOK bool) Driver {
		return func(o Options) core.Solver {
			return &parallel.ParallelDPSO{
				PSO: dpso.Config{Iterations: o.Iterations}, Ens: ensembleFrom(o),
				Parallel: parallelOK, Progress: o.Progress, Metrics: o.Metrics,
			}
		}
	}
	RegisterDriver(DPSO, EngineCPUParallel, dpsoCPU(true))
	RegisterDriver(DPSO, EngineCPUSerial, dpsoCPU(false))

	// TA and ES: the CPU baseline families, as chain factories over the
	// shared ensemble runtime — which honors EngineCPUParallel (the old
	// facade ran these serially regardless of engine). No GPU
	// registration exists, so the facade rejects EngineGPU for them.
	taDriver := func(parallelOK bool) Driver {
		return func(o Options) core.Solver {
			cfg := ta.Config{Iterations: o.Iterations, TempSamples: o.TempSamples}
			return &parallel.ChainEnsemble{
				Label: "TA", Ens: ensembleFrom(o), Parallel: parallelOK,
				Iterations: o.Iterations, Progress: o.Progress, Metrics: o.Metrics,
				NewChain: func(inst *problem.Instance, _ int, rng *xrand.XORWOW) parallel.Chain {
					return ta.NewChain(cfg, core.NewEvaluator(inst), rng)
				},
			}
		}
	}
	RegisterDriver(TA, EngineCPUParallel, taDriver(true))
	RegisterDriver(TA, EngineCPUSerial, taDriver(false))

	esDriver := func(parallelOK bool) Driver {
		return func(o Options) core.Solver {
			cfg := es.DefaultConfig()
			if o.Iterations > 0 {
				cfg.Generations = o.Iterations
			}
			return &parallel.ChainEnsemble{
				Label: "ES", Ens: ensembleFrom(o), Parallel: parallelOK,
				Iterations: o.Iterations, Progress: o.Progress, Metrics: o.Metrics,
				NewChain: func(inst *problem.Instance, _ int, rng *xrand.XORWOW) parallel.Chain {
					return es.New(cfg, core.NewEvaluator(inst), rng)
				},
			}
		}
	}
	RegisterDriver(ES, EngineCPUParallel, esDriver(true))
	RegisterDriver(ES, EngineCPUSerial, esDriver(false))
}

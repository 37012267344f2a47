package duedate

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/problem"
)

// This file wires the pseudo-polynomial exact layer into the driver
// registry as the EXACT-DP algorithm on the cpu-serial engine. Unlike
// the metaheuristic drivers it declares a narrow capability surface —
// CDD and EARLYWORK only — and can decline an in-capability instance
// with a typed error (no agreeable ratio order, state budget exceeded);
// on success the Result carries Optimal=true, the stack's only
// optimality certificate.

func init() {
	RegisterDriverCaps(ExactDP, EngineCPUSerial, func(o Options) core.Solver {
		return &exactDPSolver{opts: o}
	}, []Kind{CDD, EARLYWORK}, true)
}

// exactDPSolver adapts exact.SolveDPContext to the core.Solver contract:
// budget deadlines and cancellation map to an Interrupted identity-genome
// result (the DP has no usable partial solution), domain and budget
// rejections propagate as typed errors for the caller to route on.
type exactDPSolver struct {
	opts Options
}

// Name identifies the solver in experiment tables.
func (s *exactDPSolver) Name() string { return "EXACT-DP" }

// Solve runs the DP once. Evaluations reports stored DP states (the
// work unit of this driver), mirrored into Metrics as full evaluations
// when collection is on, as AUTO's DP route counts them.
func (s *exactDPSolver) Solve(ctx context.Context, in *problem.Instance) (core.Result, error) {
	col := obs.NewCollector(s.opts.Metrics)
	start := time.Now()
	r, err := exact.SolveDPContext(ctx, in, exact.DPConfig{})
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cooperative-cancellation contract: return an honest (valid,
			// exactly costed) solution with Interrupted set, not an error.
			// An unfinished DP has no best-so-far, so the identity genome
			// stands in; Optimal stays false.
			seq := problem.IdentitySequence(in.GenomeLen())
			res := core.Result{
				BestSeq:     seq,
				BestCost:    core.NewEvaluator(in).Cost(seq),
				Evaluations: 1,
				Elapsed:     elapsed,
				Interrupted: true,
			}
			col.SetInterruptedAt("dp-layer")
			col.AddFullEvals(1)
			res.Metrics = col.Snapshot(res.Evaluations, 1, 1, elapsed)
			s.emit(res)
			return res, nil
		}
		return core.Result{}, fmt.Errorf("duedate: EXACT-DP: %w", err)
	}
	if col.Kernels() {
		col.Phase(obs.PhaseDP, elapsed, 0)
	} else {
		col.CountPhase(obs.PhaseDP)
	}
	res := core.Result{
		BestSeq:     r.Seq,
		BestCost:    r.Cost,
		Iterations:  1,
		Evaluations: r.Nodes,
		Elapsed:     elapsed,
		Optimal:     true,
	}
	col.AddFullEvals(r.Nodes)
	res.Metrics = col.Snapshot(res.Evaluations, 1, 1, elapsed)
	s.emit(res)
	return res, nil
}

// emit sends the single final progress snapshot (the DP is one-shot, so
// there are no intermediate improvements to report).
func (s *exactDPSolver) emit(res core.Result) {
	if s.opts.Progress == nil {
		return
	}
	s.opts.Progress(core.Snapshot{
		BestSeq:     append([]int(nil), res.BestSeq...),
		BestCost:    res.BestCost,
		Evaluations: res.Evaluations,
		Elapsed:     res.Elapsed,
	})
}

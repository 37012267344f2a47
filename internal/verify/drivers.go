package verify

import (
	"context"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/problem"
)

// Budget sizes the per-solve effort of the drivers under differential
// test. Verification instances are tiny (the exact oracles cap n), so the
// defaults are far below the paper's experiment configuration — the goal
// is many instances through every engine, not solution quality on one.
type Budget struct {
	// Iterations per chain (default 60).
	Iterations int
	// Grid and Block set the ensemble geometry (default 1 × 8).
	Grid, Block int
	// TempSamples for the T₀ estimate (default 50).
	TempSamples int
}

func (b Budget) withDefaults() Budget {
	if b.Iterations <= 0 {
		b.Iterations = 60
	}
	if b.Grid <= 0 {
		b.Grid = 1
	}
	if b.Block <= 0 {
		b.Block = 8
	}
	if b.TempSamples <= 0 {
		b.TempSamples = 50
	}
	return b
}

// RegisteredDrivers adapts every algorithm×engine pairing of the facade
// registry into verification drivers. Because the list is enumerated from duedate.Pairings() at call time, any
// future engine is under differential test the moment it self-registers.
func RegisteredDrivers(b Budget) []Driver {
	b = b.withDefaults()
	var drivers []Driver
	mk := func(name string, opts duedate.Options) Driver {
		return Driver{Name: name, Solve: func(ctx context.Context, in *problem.Instance, seed uint64) (core.Result, error) {
			opts.Seed = seed
			return duedate.SolveContext(ctx, in, opts)
		}}
	}
	for _, p := range duedate.Pairings() {
		opts := duedate.Options{
			Algorithm:   p.Algorithm,
			Engine:      p.Engine,
			Iterations:  b.Iterations,
			Grid:        b.Grid,
			Block:       b.Block,
			TempSamples: b.TempSamples,
		}
		drivers = append(drivers, mk(p.Algorithm.String()+"/"+p.Engine.String(), opts))
	}
	return drivers
}

package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
)

// StrategyRow compares the two parallel-SA strategies of Ferreiro et al.
// (Section V) on one instance size at equal evaluation budgets.
type StrategyRow struct {
	Size      int
	AsyncCost int64
	SyncCost  int64
	// AsyncPct is 100·(async−sync)/sync: negative means the asynchronous
	// strategy won, as the paper found ("premature convergence of the
	// latter approach").
	AsyncPct float64
	// AsyncAccepts and SyncAccepts count accepted Metropolis moves across
	// the whole ensemble — the synchronous broadcast's premature
	// convergence shows up as a collapsed acceptance count.
	AsyncAccepts int64
	SyncAccepts  int64
}

// CompareStrategies runs asynchronous vs synchronous parallel SA over the
// preset's benchmark (first CDD instance of each size) with identical
// total iteration budgets: the async chains run ItersLow iterations
// independently; the sync ensemble spends the same budget as Levels
// rounds of MarkovLen = 10 steps with broadcast between rounds.
func CompareStrategies(ctx context.Context, p Preset, progress io.Writer) ([]StrategyRow, error) {
	var rows []StrategyRow
	saCfg := sa.Config{Iterations: p.ItersLow, TempSamples: p.TempSamples}
	markov := 10
	for _, size := range p.Sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		instances, err := benchmarkInstances(p, problem.CDD, size)
		if err != nil {
			return nil, err
		}
		inst := instances[len(instances)-1]
		ens := parallel.Ensemble{Chains: p.Ensemble(), Seed: p.Seed ^ uint64(size)}
		async, err := (&parallel.AsyncSA{
			SA: saCfg, Ens: ens, Parallel: true,
			Metrics: core.MetricsCounters,
		}).Solve(ctx, inst)
		if err != nil {
			return nil, err
		}
		sync, err := (&parallel.SyncSA{
			SA: saCfg, Ens: ens,
			MarkovLen: markov, Levels: p.ItersLow / markov,
			Parallel: true,
			Metrics:  core.MetricsCounters,
		}).Solve(ctx, inst)
		if err != nil {
			return nil, err
		}
		row := StrategyRow{
			Size:      size,
			AsyncCost: async.BestCost,
			SyncCost:  sync.BestCost,
			AsyncPct:  100 * float64(async.BestCost-sync.BestCost) / float64(sync.BestCost),
		}
		if async.Metrics != nil {
			row.AsyncAccepts = async.Metrics.Acceptances
		}
		if sync.Metrics != nil {
			row.SyncAccepts = sync.Metrics.Acceptances
		}
		rows = append(rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "strategy n=%d async=%d sync=%d (%.2f%%)\n",
				size, row.AsyncCost, row.SyncCost, row.AsyncPct)
		}
	}
	return rows, nil
}

// RenderStrategies formats the comparison as the Figures 7/8 discussion
// table.
func RenderStrategies(rows []StrategyRow) string {
	var b strings.Builder
	b.WriteString("STRATEGY COMPARISON — asynchronous vs synchronous parallel SA (Ferreiro et al.)\n")
	fmt.Fprintf(&b, "%6s %14s %14s %12s %14s %14s\n",
		"Jobs", "async best", "sync best", "async vs sync", "async accepts", "sync accepts")
	asyncWins := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %14d %14d %11.2f%% %14d %14d\n",
			r.Size, r.AsyncCost, r.SyncCost, r.AsyncPct, r.AsyncAccepts, r.SyncAccepts)
		if r.AsyncCost <= r.SyncCost {
			asyncWins++
		}
	}
	fmt.Fprintf(&b, "asynchronous wins or ties %d/%d sizes (the paper chose async for the\n", asyncWins, len(rows))
	b.WriteString("premature convergence of the synchronous broadcast scheme)\n")
	return b.String()
}

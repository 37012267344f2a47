// Ablation benchmarks for the design choices the paper fixes by
// experiment (cooling rate, perturbation size, block size), the options it
// leaves open (reduction frequency, initial configurations, DPSO
// communication) and its stated future work (texture memory, concurrent
// kernels). Each benchmark reports the quantity the choice trades off —
// simulated device milliseconds or solution quality (%Δ against a common
// reference).
package duedate_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/dpso"
	"repro/internal/heuristic"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
)

// BenchmarkAblationPTimeAccess compares the three processing-time read
// modes of the fitness kernel: the optimistic coalesced default, the
// worst-case scattered reads of the paper's uncached accesses, and the
// texture path of the paper's future work.
func BenchmarkAblationPTimeAccess(b *testing.B) {
	in := benchInstance(b, problem.CDD, 100)
	for _, mode := range []struct {
		name string
		mode parallel.PAccess
	}{
		{"coalesced", parallel.PAccessCoalesced},
		{"scattered", parallel.PAccessScattered},
		{"texture", parallel.PAccessTexture},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var sim float64
			var cost int64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: benchItersLow, TempSamples: benchTemp},
					Grid: benchGrid, Block: benchBlock, Seed: 1,
					PTimeAccess: mode.mode,
				}, in)
				sim = res.SimSeconds
				cost = res.BestCost
			}
			b.ReportMetric(sim*1e3, "sim-ms")
			b.ReportMetric(float64(cost), "cost")
		})
	}
}

// BenchmarkAblationReduceEvery varies the reduction-kernel frequency (the
// paper launches it every iteration): less frequent reductions trade
// result-tracking latency for launch overhead and atomics.
func BenchmarkAblationReduceEvery(b *testing.B) {
	in := benchInstance(b, problem.CDD, 50)
	for _, every := range []int{1, 10, benchItersLow} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: benchItersLow, TempSamples: benchTemp},
					Grid: benchGrid, Block: benchBlock, Seed: 1,
					ReduceEvery: every,
				}, in)
				sim = res.SimSeconds
			}
			b.ReportMetric(sim*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationBlockSize reproduces the paper's block-size experiment
// ("the best results for both problems are achieved with a block size of
// 192"): the same 768-thread ensemble split into different block shapes.
func BenchmarkAblationBlockSize(b *testing.B) {
	in := benchInstance(b, problem.CDD, 50)
	for _, shape := range []struct{ grid, block int }{
		{24, 32}, {12, 64}, {6, 128}, {4, 192}, {2, 384}, {1, 768},
	} {
		b.Run(fmt.Sprintf("grid%dx%d", shape.grid, shape.block), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: 40, TempSamples: benchTemp},
					Grid: shape.grid, Block: shape.block, Seed: 1,
				}, in)
				sim = res.SimSeconds
			}
			b.ReportMetric(sim*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationDPSOCommunication quantifies the central DPSO design
// question: the paper's communication-free asynchronous scheme versus a
// swarm that broadcasts its reduced best each generation.
func BenchmarkAblationDPSOCommunication(b *testing.B) {
	in := benchInstance(b, problem.CDD, 50)
	ref := referenceCost(b, in)
	for _, mode := range []struct {
		name  string
		share bool
	}{
		{"async_paper", false},
		{"shared_gbest", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUDPSO{
					PSO:  dpso.Config{Iterations: benchItersLow},
					Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
					ShareSwarmBest: mode.share,
				}, in)
				dev = core.PercentDeviation(res.BestCost, ref)
			}
			b.ReportMetric(dev, "%Δ")
		})
	}
}

// BenchmarkAblationWarmStart compares random initial sequences (the
// paper's choice) against warm-starting every chain from the V-shape
// constructive heuristic.
func BenchmarkAblationWarmStart(b *testing.B) {
	in := benchInstance(b, problem.CDD, 50)
	ref := referenceCost(b, in)
	warm := heuristic.VShape(in)
	for _, mode := range []struct {
		name string
		init []int
	}{
		{"random_init", nil},
		{"heuristic_init", warm},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: benchItersLow, TempSamples: benchTemp},
					Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
					InitialSeq: mode.init,
				}, in)
				dev = core.PercentDeviation(res.BestCost, ref)
			}
			b.ReportMetric(dev, "%Δ")
		})
	}
}

// BenchmarkAblationCooling sweeps the exponential cooling factor around
// the paper's 0.88 ("inferred from our experiments over a range of
// cooling rates").
func BenchmarkAblationCooling(b *testing.B) {
	in := benchInstance(b, problem.CDD, 50)
	ref := referenceCost(b, in)
	for _, mu := range []float64{0.80, 0.88, 0.95, 0.99} {
		b.Run(fmt.Sprintf("mu%.2f", mu), func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: benchItersLow, Cooling: mu, TempSamples: benchTemp},
					Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
				}, in)
				dev = core.PercentDeviation(res.BestCost, ref)
			}
			b.ReportMetric(dev, "%Δ")
		})
	}
}

// BenchmarkAblationPert sweeps the perturbation size around the paper's
// Pert = 4.
func BenchmarkAblationPert(b *testing.B) {
	in := benchInstance(b, problem.CDD, 50)
	ref := referenceCost(b, in)
	for _, pert := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("pert%d", pert), func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				res := solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: benchItersLow, Pert: pert, TempSamples: benchTemp},
					Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
				}, in)
				dev = core.PercentDeviation(res.BestCost, ref)
			}
			b.ReportMetric(dev, "%Δ")
		})
	}
}

// BenchmarkAblationCooperativeHostCost measures the host-side price of
// the faithful goroutine-per-thread barrier execution versus sequential
// in-order blocks (results are identical; only host wall time differs).
func BenchmarkAblationCooperativeHostCost(b *testing.B) {
	in := benchInstance(b, problem.CDD, 30)
	for _, mode := range []struct {
		name string
		coop bool
	}{
		{"sequential", false},
		{"cooperative", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveOK(b, &parallel.GPUSA{
					SA:   sa.Config{Iterations: 20, TempSamples: 50},
					Grid: 2, Block: 32, Seed: 1,
					Cooperative: mode.coop,
				}, in)
			}
		})
	}
}

// BenchmarkAblationStreamOverlap bounds the benefit of running
// independent kernels on concurrent streams (the simulator's optimistic
// overlap model): two equal-cost kernels serial versus overlapped.
func BenchmarkAblationStreamOverlap(b *testing.B) {
	work := func(c *cudasim.Ctx) { c.ChargeArith(50000) }
	cfg := cudasim.LaunchConfig{Name: "w", Grid: cudasim.Dim(4), Block: cudasim.Dim(64)}
	b.Run("serial", func(b *testing.B) {
		var sim float64
		for i := 0; i < b.N; i++ {
			d := cudasim.NewDevice(cudasim.GT560M())
			d.MustLaunch(cfg, work)
			d.MustLaunch(cfg, work)
			sim = d.SimTime()
		}
		b.ReportMetric(sim*1e3, "sim-ms")
	})
	b.Run("overlapped", func(b *testing.B) {
		var sim float64
		for i := 0; i < b.N; i++ {
			d := cudasim.NewDevice(cudasim.GT560M())
			s1, s2 := d.NewStream(), d.NewStream()
			if err := s1.Launch(cfg, work); err != nil {
				b.Fatal(err)
			}
			if err := s2.Launch(cfg, work); err != nil {
				b.Fatal(err)
			}
			d.Join(s1, s2)
			sim = d.SimTime()
		}
		b.ReportMetric(sim*1e3, "sim-ms")
	})
}

package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/orlib"
	"repro/internal/parallel"
	"repro/internal/sa"
)

// Fig11Point is one cell of the Figure 11 surface: the runtime of the
// parallel UCDDCP fitness pipeline for a thread count × generation count.
type Fig11Point struct {
	Threads     int
	Generations int
	WallSeconds float64
	SimSeconds  float64
}

// Fig11Config parameterizes the surface sweep. Zero values take the
// paper-shaped defaults (UCDDCP, n = 100, threads 48…768, generations
// 100…1000).
type Fig11Config struct {
	Size        int
	Block       int
	Threads     []int
	Generations []int
	Seed        uint64
	TempSamples int
}

func (c Fig11Config) normalized() Fig11Config {
	if c.Size <= 0 {
		c.Size = 100
	}
	if c.Block <= 0 {
		c.Block = 48
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{48, 96, 192, 384, 768}
	}
	if len(c.Generations) == 0 {
		c.Generations = []int{100, 250, 500, 1000}
	}
	if c.Seed == 0 {
		c.Seed = orlib.DefaultSeed
	}
	if c.TempSamples <= 0 {
		c.TempSamples = 200
	}
	return c
}

// Figure11 sweeps the runtime of the parallel asynchronous SA on a UCDDCP
// instance over thread counts and generation counts, reproducing the
// surface of Figure 11: runtime grows with both axes, and thread counts
// beyond the device's simultaneous capacity serialize block waves.
func Figure11(ctx context.Context, cfg Fig11Config, progress io.Writer) ([]Fig11Point, error) {
	cfg = cfg.normalized()
	instances, err := orlib.BenchmarkUCDDCP(cfg.Size, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	inst := instances[0]
	var points []Fig11Point
	for _, threads := range cfg.Threads {
		grid := (threads + cfg.Block - 1) / cfg.Block
		block := cfg.Block
		if threads < block {
			block = threads
			grid = 1
		}
		for _, gens := range cfg.Generations {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			saCfg := sa.Config{Iterations: gens, TempSamples: cfg.TempSamples}
			start := time.Now()
			res, err := (&parallel.GPUSA{
				SA: saCfg, Grid: grid, Block: block, Seed: cfg.Seed,
			}).Solve(ctx, inst)
			if err != nil {
				return nil, err
			}
			p := Fig11Point{
				Threads:     grid * block,
				Generations: gens,
				WallSeconds: time.Since(start).Seconds(),
				SimSeconds:  res.SimSeconds,
			}
			points = append(points, p)
			if progress != nil {
				fmt.Fprintf(progress, "fig11 threads=%d gens=%d wall=%.3fs sim=%.4fs\n",
					p.Threads, p.Generations, p.WallSeconds, p.SimSeconds)
			}
		}
	}
	return points, nil
}

// Fig11CSV renders the surface as CSV.
func Fig11CSV(points []Fig11Point) string {
	var b strings.Builder
	b.WriteString("threads,generations,wall_seconds,sim_seconds\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%d,%d,%.6f,%.6f\n", p.Threads, p.Generations, p.WallSeconds, p.SimSeconds)
	}
	return b.String()
}

// gpu_pipeline drives the simulated CUDA device directly, showing the
// machinery under the paper's Section VI: the device spec, the
// host↔device transfers of Figure 9, the four kernels of Figure 10 with
// shared-memory staging and the atomic-min reduction, and the profiler
// report (the stand-in for the Nvidia CUDA profiler the paper used to
// tune its kernels).
package main

import (
	"context"
	"fmt"
	"log"

	duedate "repro"
	"repro/internal/cudasim"
	"repro/internal/parallel"
	"repro/internal/sa"
)

func main() {
	dev := cudasim.NewDevice(cudasim.GT560M())
	spec := dev.Spec()
	fmt.Printf("device: %s\n", spec.Name)
	fmt.Printf("  %d SMs × %d cores, warp %d, ≤%d threads/block, %.0f MHz, %d KiB shared/block\n\n",
		spec.SMs, spec.CoresPerSM, spec.WarpSize, spec.MaxThreadsPerBlock,
		spec.ClockMHz, spec.SharedMemPerBlock/1024)

	// A direct kernel: block-wide shared-memory staging behind a real
	// __syncthreads barrier, then an atomic-min reduction — the exact
	// pattern of the paper's fitness + reduction kernels.
	data := make([]int64, 256)
	for i := range data {
		data[i] = int64((i*2654435761)%10007 + 1)
	}
	src := cudasim.NewBufferFrom(dev, data)
	best := cudasim.NewBufferFrom(dev, []int64{1 << 62})
	err := dev.Launch(cudasim.LaunchConfig{
		Name:        "demo",
		Grid:        cudasim.Dim(2),
		Block:       cudasim.Dim(128),
		Cooperative: true,
	}, func(c *cudasim.Ctx) {
		sh := c.SharedInt64(0, 128)
		tib := c.ThreadInBlock()
		sh[tib] = src.Load(c, c.GlobalThreadID())
		c.ChargeShared(1)
		c.SyncThreads()
		// Tree reduction in shared memory, then one atomic per block.
		for stride := 64; stride > 0; stride /= 2 {
			if tib < stride && sh[tib+stride] < sh[tib] {
				sh[tib] = sh[tib+stride]
			}
			c.ChargeShared(2)
			c.SyncThreads()
		}
		if tib == 0 {
			cudasim.AtomicMinInt64(c, best, 0, sh[0])
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	out := make([]int64, 1)
	best.CopyToHost(out)
	fmt.Printf("shared-memory tree reduction + atomic min over 256 values: %d\n\n", out[0])

	// The full four-kernel SA pipeline on a benchmark instance, with the
	// profiler collecting per-kernel statistics.
	instances, err := duedate.GenerateCDDBenchmark(100, 1, 2016)
	if err != nil {
		log.Fatal(err)
	}
	in := instances[2] // h = 0.6
	res, err := (&parallel.GPUSA{
		SA:   sa.Config{Iterations: 200, TempSamples: 500},
		Grid: 2, Block: 96,
		Seed: 1,
		Dev:  dev,
	}).Solve(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline run on %s: best=%d, %d evaluations, %.4f s simulated, %v wall\n\n",
		in.Name, res.BestCost, res.Evaluations, res.SimSeconds, res.Elapsed)

	fmt.Println("profiler report (cf. the Nvidia CUDA profiler of Section I):")
	fmt.Print(dev.Profiler().Report())
}

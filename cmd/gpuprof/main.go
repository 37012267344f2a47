// Command gpuprof profiles the simulated GPU pipeline: it runs the
// four-kernel SA (or DPSO) pipeline on a benchmark instance, prints the
// per-kernel profile (the simulator's nvprof), writes the machine-readable
// profile to a JSON file, and optionally writes a Chrome trace-event
// timeline for chrome://tracing / Perfetto.
//
//	gpuprof -size 100 -iters 200 -trace timeline.json
//	gpuprof -algo dpso -grid 4 -block 192 -kind ucddcp
//	gpuprof -json BENCH_kernels.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/dpso"
	"repro/internal/orlib"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
)

// profile is the JSON document gpuprof emits: the solver-side phase
// metrics (host wall time + simulated device seconds per phase) next to
// the device-side per-kernel counters and the PCIe transfer totals.
type profile struct {
	Instance   string                           `json:"instance"`
	Algorithm  string                           `json:"algorithm"`
	Grid       int                              `json:"grid"`
	Block      int                              `json:"block"`
	Iterations int                              `json:"iterations"`
	BestCost   int64                            `json:"bestCost"`
	SimSeconds float64                          `json:"simSeconds"`
	WallNs     int64                            `json:"wallNs"`
	Metrics    *duedate.Metrics                 `json:"metrics"`
	Kernels    map[string]cudasim.KernelStats   `json:"kernels"`
	Transfers  map[string]cudasim.TransferStats `json:"transfers"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpuprof: ")
	algo := duedate.SA
	var (
		kind        = flag.String("kind", "cdd", "problem: cdd or ucddcp")
		size        = flag.Int("size", 100, "benchmark instance size")
		iters       = flag.Int("iters", 200, "iterations")
		grid        = flag.Int("grid", 4, "blocks")
		block       = flag.Int("block", 48, "threads per block")
		seed        = flag.Uint64("seed", 1, "solver seed")
		jsonPath    = flag.String("json", "BENCH_kernels.json", "write the machine-readable profile to this file (empty disables)")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event timeline to this file")
		cooperative = flag.Bool("cooperative", false, "goroutine-per-thread barrier execution")
	)
	flag.Var(&algo, "algo", "algorithm: SA or DPSO")
	flag.Parse()

	var (
		inst *problem.Instance
		err  error
	)
	if *kind == "ucddcp" {
		var ins []*problem.Instance
		ins, err = orlib.BenchmarkUCDDCP(*size, 1, orlib.DefaultSeed)
		if err == nil {
			inst = ins[0]
		}
	} else {
		var ins []*problem.Instance
		ins, err = orlib.BenchmarkCDD(*size, 1, orlib.DefaultSeed)
		if err == nil {
			inst = ins[2]
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	dev := cudasim.NewDevice(cudasim.GT560M())
	if *tracePath != "" {
		dev.EnableTrace()
	}

	// Ctrl-C stops the pipeline at its next kernel-round boundary; the
	// profile of the kernels launched so far still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Kernel-level metrics are the point of this command, so the solvers
	// always run with the highest instrumentation level.
	saCfg := sa.Config{Iterations: *iters, TempSamples: 500}
	var solver core.Solver
	switch algo {
	case duedate.SA:
		solver = &parallel.GPUSA{SA: saCfg, Grid: *grid, Block: *block,
			Seed: *seed, Dev: dev, Cooperative: *cooperative, Metrics: duedate.MetricsKernels}
	case duedate.DPSO:
		solver = &parallel.GPUDPSO{PSO: dpso.Config{Iterations: *iters},
			Grid: *grid, Block: *block, Seed: *seed, Dev: dev, Cooperative: *cooperative,
			Metrics: duedate.MetricsKernels}
	default:
		log.Fatalf("algorithm %v has no GPU pipeline (want SA or DPSO)", algo)
	}
	res, err := solver.Solve(ctx, inst)
	if err != nil {
		log.Fatal(err)
	}
	if res.Interrupted {
		fmt.Fprintln(os.Stderr, "interrupted — profiling the kernels launched so far")
	}

	fmt.Printf("instance  %s   best=%d   device=%.4fs (simulated)\n", inst.Name, res.BestCost, res.SimSeconds)
	fmt.Printf("memory    %d B device buffers live\n", dev.MemoryInUse())
	if res.Metrics != nil {
		fmt.Println("\nsolver phases (host wall / simulated device):")
		for _, ph := range res.Metrics.Phases {
			fmt.Printf("  %-12s %5d×  %10s  %8.3f ms\n", ph.Name, ph.Count, ph.Wall, ph.Sim*1e3)
		}
	}
	fmt.Println()
	fmt.Print(dev.Profiler().Report())

	if *jsonPath != "" {
		h2d, d2h := dev.Profiler().Transfers()
		doc := profile{
			Instance:   inst.Name,
			Algorithm:  algo.String(),
			Grid:       *grid,
			Block:      *block,
			Iterations: *iters,
			BestCost:   res.BestCost,
			SimSeconds: res.SimSeconds,
			WallNs:     res.Elapsed.Nanoseconds(),
			Metrics:    res.Metrics,
			Kernels:    dev.Profiler().Kernels(),
			Transfers:  map[string]cudasim.TransferStats{"h2d": h2d, "d2h": d2h},
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := dev.WriteTrace(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d events) — open in chrome://tracing\n", *tracePath, len(dev.TraceEvents()))
	}
}

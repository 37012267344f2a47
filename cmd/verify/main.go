// Command verify runs the cross-engine differential-verification
// subsystem: seedable instance families through the evaluator-agreement
// chain, the delta-walk protocol check, the metamorphic properties, the
// exact oracles, and every registered algorithm×engine driver. It prints a
// human summary, optionally writes the full JSON report, and exits nonzero
// if any discrepancy was found.
//
//	verify -trials 200
//	verify -trials 50 -families uniform-cdd,d-zero -out report.json
//	verify -trials 20 -no-drivers          # evaluator/oracle layers only
//	verify -trials 30 -machines 3          # force every family onto 3 machines
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("verify: ")
	var (
		trials     = flag.Int("trials", 25, "instances per generator family")
		seed       = flag.Uint64("seed", 1, "master seed; a fixed seed replays the exact run")
		maxN       = flag.Int("maxn", 8, "job-count bound for size-randomized families")
		seqs       = flag.Int("seqs", 4, "random sequences cross-checked per instance")
		families   = flag.String("families", "", "comma-separated family filter (default: all)")
		machines   = flag.Int("machines", 0, "force every generated instance onto this many machines (0: family default)")
		dpTrials   = flag.Int("dp-trials", 3, "exact-dp leg trials at n in the hundreds (negative: disable the leg)")
		dpMaxN     = flag.Int("dp-maxn", 240, "upper job-count bound for the exact-dp leg's large CDD instances (lower bound 200)")
		autoTrials = flag.Int("auto-trials", 3, "AUTO portfolio-leg trials (equal-budget race vs every static pairing; negative: disable)")
		noDrivers  = flag.Bool("no-drivers", false, "skip the engine drivers (evaluator/oracle layers only)")
		iters      = flag.Int("iters", 60, "driver iterations per chain")
		grid       = flag.Int("grid", 1, "driver ensemble grid")
		block      = flag.Int("block", 8, "driver ensemble block")
		out        = flag.String("out", "", "write the full JSON report to this file")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run")
		maxPrint   = flag.Int("max-print", 10, "discrepancies echoed to stderr (all go to -out)")
	)
	flag.Parse()

	cfg := verify.Config{
		Trials:     *trials,
		Seed:       *seed,
		MaxN:       *maxN,
		SeqSamples: *seqs,
		Machines:   *machines,
		DPTrials:   *dpTrials,
		DPMaxN:     *dpMaxN,
		AutoTrials: *autoTrials,
	}
	if *families != "" {
		cfg.Families = strings.Split(*families, ",")
	}
	var drivers []verify.Driver
	if !*noDrivers {
		drivers = verify.RegisteredDrivers(verify.Budget{Iterations: *iters, Grid: *grid, Block: *block})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rep, err := verify.Run(ctx, cfg, drivers)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(rep.Summary())
	for _, name := range rep.Drivers {
		st := rep.DriverStats[name]
		fmt.Printf("  driver %-20s runs %4d  optimum %d/%d  worst gap %.2f%%\n",
			name, st.Runs, st.OptimumHits, st.OptimumKnown, st.WorstGapPct)
	}

	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}

	if !rep.Ok() {
		for i, d := range rep.Discrepancies {
			if i >= *maxPrint {
				fmt.Fprintf(os.Stderr, "... and %d more\n", len(rep.Discrepancies)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "DISCREPANCY %s family=%s instance=%s driver=%s: %s\n",
				d.Check, d.Family, d.Instance, d.Driver, d.Detail)
		}
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/problem"
)

// libRow is one (pairing, instance) solve of a library workload. A
// round runs every row once; the seed is fixed per row, so every round
// repeats the same trajectories.
type libRow struct {
	alg     duedate.Algorithm
	pairing string
	inst    *instance
	opts    duedate.Options
}

// libWorkload is a closed loop with one caller over direct
// duedate.SolveContext calls.
type libWorkload struct {
	// instances draws the workload's inputs from the seed.
	instances func(seed uint64) ([]*instance, error)
	// enrol selects the Pairings() entries the workload runs on an
	// instance.
	enrol func(p duedate.Pairing, inst *instance) bool
	// geometry sets the ensemble geometry and iteration budget.
	geometry duedate.Options
	// tailQ is the latency tail percentile (see tail).
	tailQ float64
}

// libEnv is a library workload after set-up.
type libEnv struct {
	seed  uint64
	insts []*instance
	rows  []libRow
	tailQ float64
}

func (w libWorkload) session(seed uint64, _ bool) (session, error) {
	insts, err := w.instances(seed)
	if err != nil {
		return nil, err
	}
	env := &libEnv{seed: seed, insts: insts, tailQ: w.tailQ}
	for _, p := range duedate.Pairings() {
		for _, inst := range insts {
			if !supports(p, inst.in) || !w.enrol(p, inst) {
				continue
			}
			o := w.geometry
			o.Algorithm, o.Engine = p.Algorithm, p.Engine
			o.Seed = rowSeed(seed, len(env.rows))
			env.rows = append(env.rows, libRow{
				alg: p.Algorithm, pairing: pairingName(p.Algorithm, p.Engine), inst: inst, opts: o,
			})
		}
	}
	if len(env.rows) == 0 {
		return nil, fmt.Errorf("no pairing enrolled on the workload's instances")
	}
	return env, nil
}

func (env *libEnv) close() {}

// rowSeed derives a row's nonzero solver seed from the workload seed.
func rowSeed(seed uint64, row int) uint64 {
	return seed*1_000_003 + uint64(row) + 1
}

// run measures whole rounds of every row, so every row is sampled equally
// often. A round starts only while it is expected to end no more than
// half a round past the budget, so a run measures the budget to within
// half a round either way.
func (env *libEnv) run(budget time.Duration, traced bool, tr *tracer) *outcome {
	out := &outcome{layers: newLayers(), tailQ: env.tailQ}
	level := duedate.MetricsOff
	if traced {
		level = duedate.MetricsKernels
	}
	first := make([]int64, len(env.rows))
	rowLat := make([][]float64, len(env.rows))
	var gaps []float64
	solves := 0
	var sims float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPUSeconds()
	ctx := context.Background()
	start := time.Now()
	var trace int64
	for round := 0; ; round++ {
		if el := time.Since(start); round > 0 && el+el/time.Duration(2*round) > budget {
			break
		}
		for i, r := range env.rows {
			trace++
			opts := r.opts
			opts.Metrics = level
			var root int
			rootStart := time.Now()
			if traced {
				root = tr.begin(trace, r.pairing+" "+r.inst.in.Name, rootStart)
				out.decodeAndHash(tr, trace, root, r.inst)
			}
			t := time.Now()
			res, err := duedate.SolveContext(ctx, r.inst.in, opts)
			wall := time.Since(t)
			out.attempted++
			if traced {
				call := tr.add(trace, root, "duedate.SolveContext", t, wall)
				if res.Metrics != nil {
					tr.addPhases(trace, call, t, res.Metrics.Phases)
				}
				tr.end(root, time.Since(rootStart))
			}
			if err != nil {
				out.gate.fail(fmt.Sprintf("%s on %s: %v", r.pairing, r.inst.in.Name, err))
				continue
			}
			if !out.gate.check(r.inst, r.pairing, answer{res.BestSeq, res.BestCost, res.Optimal}) {
				continue
			}
			if round == 0 {
				first[i] = res.BestCost
				out.fp.add(r.pairing, r.inst.in.Name, opts.Seed, res.BestCost)
			} else if res.BestCost != first[i] {
				out.gate.fail(fmt.Sprintf("%s on %s: fixed-seed cost %d differs from the first round's %d",
					r.pairing, r.inst.in.Name, res.BestCost, first[i]))
				continue
			}
			rowLat[i] = append(rowLat[i], ms(wall))
			solves++
			gaps = append(gaps, core.PercentDeviation(res.BestCost, r.inst.ref))
			sims += res.SimSeconds
			if traced {
				out.layers.observe(r.alg, r.pairing, r.inst, res, wall)
			}
		}
		out.rounds++
	}
	out.wall = time.Since(start)
	gc1, cpu1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	// The latency percentiles are taken over the rows' median latencies,
	// so every row counts once however many rounds the host had time
	// for (see tail).
	var lat []float64
	for _, l := range rowLat {
		if len(l) > 0 {
			lat = append(lat, quantile(l, 0.5))
		}
	}
	out.solves = solves
	out.latency = lat
	out.gcFrac = frac(gc1-gc0, cpu1-cpu0)
	n := float64(solves)
	out.e2e = []metric{
		{"latency_ms_p50", "ms", hdQuantile(lat, 0.5), fmt.Sprintf("over %d rows' median latencies", len(lat))},
		tailMetric("latency_ms_tail", "ms", lat, env.tailQ, "rows"),
		{"solves_per_s", "1/s", n / out.wall.Seconds(), ""},
		{"cost_gap_pct", "%", mean(gaps), "mean PercentDeviation from the reference cost"},
		{"failed_frac", "frac", frac(float64(out.gate.violations), float64(out.attempted)), ""},
		{"alloc_mb_per_solve", "MB", frac(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, n), ""},
	}
	if sims > 0 {
		out.e2e = append(out.e2e, metric{"sim_s_per_solve", "s", sims / n, "mean Result.SimSeconds"})
	}
	if traced {
		out.layers.timeDirect(env.insts, env.seed)
	}
	return out
}

// decodeAndHash times the request-side problem layer on the instance's
// wire form: ReadInstanceJSON, then CanonicalHash of the decoded
// instance.
func (o *outcome) decodeAndHash(tr *tracer, trace int64, root int, inst *instance) {
	t := time.Now()
	in, err := problem.ReadInstanceJSON(bytes.NewReader(inst.wire))
	d := time.Since(t)
	if err != nil {
		o.gate.fail(fmt.Sprintf("decode %s: %v", inst.in.Name, err))
		return
	}
	tr.add(trace, root, "problem.decode", t, d)
	t = time.Now()
	h := in.CanonicalHash()
	hd := time.Since(t)
	tr.add(trace, root, "problem.hash", t, hd)
	if h != inst.in.CanonicalHash() {
		o.gate.fail(fmt.Sprintf("decode %s: canonical hash changed across the wire form", inst.in.Name))
	}
	o.layers.decodeUs = append(o.layers.decodeUs, float64(d)/1e3)
	o.layers.hashUs = append(o.layers.hashUs, float64(hd)/1e3)
}

// smallRecords is how many CDD and UCDDCP instances of 100 jobs the
// library workloads draw per seed, against one of 1000 jobs: the gap to
// the reference varies more from instance to instance at n = 100, and
// the extra instances average it out.
const smallRecords = 8

// cpuEnsemble: every CPU pairing (AUTO and EXACT-DP included) at a
// reduced ensemble geometry on CDD, UCDDCP and two-machine EARLYWORK at
// n ∈ {100, 1000}, plus two agreeable-CDD instances of 100 jobs from the
// DP's domain. EXACT-DP runs only where the DP proved an optimum in
// set-up.
var cpuEnsemble = libWorkload{
	instances: func(seed uint64) ([]*instance, error) {
		gens := append(paperKinds(100, smallRecords, seed), paperKinds(1000, 1, seed)...)
		return instances(append(gens,
			func() (*duedate.Instance, error) { return genEarlyWork(100, 2, seed) },
			func() (*duedate.Instance, error) { return genEarlyWork(1000, 2, seed) },
			func() (*duedate.Instance, error) { return genAgreeable(100, 0, seed) },
			func() (*duedate.Instance, error) { return genAgreeable(100, 1, seed) },
		)...)
	},
	enrol: func(p duedate.Pairing, inst *instance) bool {
		if p.Engine == duedate.EngineGPU {
			return false
		}
		return p.Algorithm != duedate.ExactDP || inst.hasOpt
	},
	geometry: duedate.Options{Grid: 1, Block: 4, Iterations: 100},
	// The slowest twentieth of the rows (SA, TA and ES at n = 1000, the
	// DP rows, AUTO on the restrictive agreeable instance) spreads from
	// about 200 ms to over 1 s without a clear gap; p95 leaves ten of the
	// rows beyond it.
	tailQ: 0.95,
}

// gpuPipeline: the gpu-engine pairings at the paper's 4 × 192 geometry
// on CDD and UCDDCP at n ∈ {100, 1000}.
var gpuPipeline = libWorkload{
	instances: func(seed uint64) ([]*instance, error) {
		return instances(append(paperKinds(100, smallRecords, seed), paperKinds(1000, 1, seed)...)...)
	},
	enrol: func(p duedate.Pairing, _ *instance) bool {
		return p.Engine == duedate.EngineGPU
	},
	geometry: duedate.Options{Grid: 4, Block: 192, Iterations: 25},
	// The four n = 1000 rows are the slowest ninth of the 36 rows; p90
	// weighs the fastest of them (DPSO on CDD) against the slowest
	// n = 100 rows.
	tailQ: 0.90,
}

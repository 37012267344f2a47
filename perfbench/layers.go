package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/xrand"
)

// phaseAcc accumulates one phase across solves.
type phaseAcc struct {
	wall  time.Duration
	sim   float64
	count int64
}

// rowAcc is one line of the traced run's diagnostic table: a pairing on
// one kind × size.
type rowAcc struct {
	solves   int
	wall     time.Duration
	evals    int64
	t0Calls  int64
	t0       time.Duration
	busy     time.Duration
	capacity time.Duration
}

// layers accumulates the per-layer view of a traced run. The library
// workloads fill it from every Result.Metrics; the serve workload from
// the server's /metrics registry and its responses.
type layers struct {
	solves int

	phases map[string]*phaseAcc
	// busy is Σ phase wall over all solves; capacity is Σ wall × active
	// workers, the busy time the phases would show if they accounted for
	// all of it.
	busy, capacity time.Duration

	full, delta, evals  int64
	saAccepted, saDelta int64

	utilSum float64
	utilN   int

	launches int64

	dpAttempts, certified int

	autoSolves, autoDP, autoRaces int
	raceWall, raceLoserWall       time.Duration

	overheadMs       []float64
	decodeUs, hashUs []float64

	requests, cacheHits, rejected, interrupted int

	rows map[string]*rowAcc

	// Timed directly on the workload's instances.
	fullEvalNs, deltaEvalNs, t0EstimateMs float64
}

func newLayers() *layers {
	return &layers{phases: map[string]*phaseAcc{}, rows: map[string]*rowAcc{}}
}

func (l *layers) phase(name string) *phaseAcc {
	p := l.phases[name]
	if p == nil {
		p = &phaseAcc{}
		l.phases[name] = p
	}
	return p
}

// racePrefix marks the per-lane phases AUTO appends for a race.
const racePrefix = "race:"

// autoDPPick is the AutoPick AUTO reports for its DP route.
const autoDPPick = "EXACT-DP/cpu-serial"

// observe folds one library solve into the accumulator. wall is the
// caller-observed SolveContext time.
func (l *layers) observe(alg duedate.Algorithm, pairing string, inst *instance, res duedate.Result, wall time.Duration) {
	l.solves++
	l.requests++
	l.evals += res.Evaluations
	l.overheadMs = append(l.overheadMs, ms(wall-res.Elapsed))
	if res.Interrupted {
		l.interrupted++
	}
	m := res.Metrics
	if m == nil {
		return
	}
	l.full += m.FullEvaluations
	l.delta += m.DeltaEvaluations
	if alg == duedate.SA && m.DeltaEvaluations > 0 {
		// Engines that price SA candidates with full evaluations (SA/gpu on
		// UCDDCP) report no delta evaluations to divide by.
		l.saAccepted += m.Acceptances
		l.saDelta += m.DeltaEvaluations
	}
	var busy time.Duration
	lanes := 0
	for _, p := range m.Phases {
		acc := l.phase(p.Name)
		acc.wall += p.Wall
		acc.sim += p.Sim
		acc.count += p.Count
		busy += p.Wall
		if p.Sim > 0 {
			l.launches += p.Count
		}
		if strings.HasPrefix(p.Name, racePrefix) {
			lanes++
			l.raceWall += p.Wall
		}
	}
	capacity := wall * time.Duration(activeWorkers(m, lanes))
	l.busy += busy
	l.capacity += capacity
	if m.WorkerBusy > 0 {
		l.utilSum += m.Utilization
		l.utilN++
	}
	if alg == duedate.Auto {
		l.autoSolves++
		if m.AutoPick == autoDPPick {
			l.autoDP++
		}
		if lanes > 0 {
			l.autoRaces++
			for _, p := range m.Phases {
				if strings.HasPrefix(p.Name, racePrefix) && strings.TrimPrefix(p.Name, racePrefix) != m.RaceWinner {
					l.raceLoserWall += p.Wall
				}
			}
		}
	}
	if alg == duedate.ExactDP || (alg == duedate.Auto && m.AutoPick == autoDPPick) {
		l.dpAttempts++
		if res.Optimal {
			l.certified++
		}
	}
	key := fmt.Sprintf("%-22s %-22s", pairing, inst.label())
	r := l.rows[key]
	if r == nil {
		r = &rowAcc{}
		l.rows[key] = r
	}
	r.solves++
	r.wall += wall
	r.evals += res.Evaluations
	r.t0Calls += m.Phase("t0").Count
	r.t0 += m.Phase("t0").Wall
	r.busy += busy
	r.capacity += capacity
}

// activeWorkers is how many goroutines the solve's phase walls were
// summed over. The CPU ensemble runtime times each chain's phases on the
// worker that ran it (it alone tracks WorkerBusy), so its phases sum over
// Workers; AUTO races run their lanes concurrently; every other engine
// times its phases sequentially on one goroutine.
func activeWorkers(m *core.Metrics, raceLanes int) int {
	switch {
	case raceLanes > 0:
		return raceLanes
	case m.WorkerBusy > 0 && m.Workers > 0:
		return m.Workers
	default:
		return 1
	}
}

// metrics renders the per-layer metrics in a fixed order.
func (l *layers) metrics(gcFrac, traceP50, tailQ float64) []metric {
	solves := float64(l.solves)
	busy := float64(l.busy)
	wallOf := func(name string) float64 {
		if p := l.phases[name]; p != nil {
			return float64(p.wall)
		}
		return 0
	}
	var device float64
	for _, p := range l.phases {
		if p.sim > 0 {
			device += float64(p.wall)
		}
	}
	util := 0.0
	if l.utilN > 0 {
		util = l.utilSum / float64(l.utilN)
	}
	t0Count := 0.0
	if p := l.phases["t0"]; p != nil {
		t0Count = float64(p.count)
	}
	return []metric{
		{"duedate.unaccounted_frac", "frac", 1 - frac(busy, float64(l.capacity)), ""},
		{"core.t0_calls_per_solve", "count", frac(t0Count, solves), ""},
		{"core.full_evals_per_solve", "count", frac(float64(l.full), solves), ""},
		{"core.delta_evals_per_solve", "count", frac(float64(l.delta), solves), ""},
		{"core.evals_per_solve", "count", frac(float64(l.evals), solves), ""},
		{"core.t0_busy_frac", "frac", frac(wallOf("t0"), busy), ""},
		{"core.full_eval_ns", "ns", l.fullEvalNs, "NewEvaluator(in).Cost"},
		{"core.delta_eval_ns", "ns", l.deltaEvalNs, "DeltaEvaluator.Propose, one swap"},
		{"core.t0_estimate_ms", "ms", l.t0EstimateMs, "InitialTemperature, 5000 samples"},
		{"sa.chain_busy_frac", "frac", frac(wallOf("chain"), busy), "chain-loop phase share"},
		{"sa.accept_frac", "frac", frac(float64(l.saAccepted), float64(l.saDelta)), ""},
		{"dpso.update_ms_per_solve", "ms", frac(wallOf("update"), solves) / 1e6, ""},
		{"parallel.utilization", "frac", util, ""},
		{"parallel.reduce_ms_per_solve", "ms", frac(wallOf("reduce"), solves) / 1e6, ""},
		{"cudasim.launches_per_solve", "count", frac(float64(l.launches), solves), ""},
		{"cudasim.device_busy_frac", "frac", frac(device, busy), "share of busy time in device launches"},
		{"cudasim.fitness_busy_frac", "frac", frac(wallOf("fitness"), busy), ""},
		{"exact.dp_busy_frac", "frac", frac(wallOf("dp"), busy), ""},
		{"exact.certified_frac", "frac", frac(float64(l.certified), float64(l.dpAttempts)), ""},
		{"auto.dp_route_frac", "frac", frac(float64(l.autoDP), float64(l.autoSolves)), ""},
		{"auto.race_frac", "frac", frac(float64(l.autoRaces), float64(l.autoSolves)), ""},
		{"auto.race_loser_busy_frac", "frac", frac(float64(l.raceLoserWall), float64(l.raceWall)), ""},
		{"problem.decode_us", "us", quantile(l.decodeUs, 0.5), "ReadInstanceJSON, median"},
		{"problem.hash_us", "us", quantile(l.hashUs, 0.5), "CanonicalHash, median"},
		{"server.overhead_ms_p50", "ms", quantile(l.overheadMs, 0.5), "caller latency minus engine Elapsed"},
		tailMetric("server.overhead_ms_tail", "ms", l.overheadMs, tailQ, "samples"),
		{"server.cache_hit_frac", "frac", frac(float64(l.cacheHits), float64(l.requests)), ""},
		{"server.rejected_frac", "frac", frac(float64(l.rejected), float64(l.requests)), ""},
		{"server.interrupted_frac", "frac", frac(float64(l.interrupted), float64(l.solves)), ""},
		{"go.gc_cpu_frac", "frac", gcFrac, ""},
		{"trace.latency_ms_p50", "ms", traceP50, "latency_ms_p50 of the traced run"},
	}
}

// table renders the per-row diagnostic table: pairing × kind × n with
// mean wall time, evaluations and T₀ estimates, the share of phase busy
// time spent estimating T₀, and the share of the row's wall × active
// workers its phases account for.
func (l *layers) table() []string {
	keys := make([]string, 0, len(l.rows))
	for k := range l.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []string{fmt.Sprintf("row %-22s %-22s %6s %12s %12s %8s %8s %9s", "pairing", "instance", "solves", "wall_ms", "evals", "t0_calls", "t0_share", "accounted")}
	for _, k := range keys {
		r := l.rows[k]
		n := float64(r.solves)
		// Over HTTP the phases are not attributable to a row.
		calls, share, accounted := "-", "-", "-"
		if r.busy > 0 {
			calls = fmt.Sprintf("%.2f", float64(r.t0Calls)/n)
			share = fmt.Sprintf("%.4f", float64(r.t0)/float64(r.busy))
			accounted = fmt.Sprintf("%.4f", float64(r.busy)/float64(r.capacity))
		}
		out = append(out, fmt.Sprintf("row %s %6d %12.3f %12.0f %8s %8s %9s",
			k, r.solves, ms(r.wall)/n, float64(r.evals)/n, calls, share, accounted))
	}
	return out
}

// timeDirect times the core layer directly on the workload's instances:
// a full evaluation, a delta proposal (one swap) and a 5000-sample T₀
// estimate. Each figure is the mean over instances of the per-instance
// mean, so every instance weighs the same whatever its size.
func (l *layers) timeDirect(insts []*instance, seed uint64) {
	const (
		evalReps  = 400
		t0Samples = 5000
	)
	var full, delta, t0 float64
	for i, inst := range insts {
		in := inst.in
		n := in.GenomeLen()
		rng := rand.New(rand.NewSource(int64(seed) + int64(i)))
		seqs := make([][]int, 16)
		for k := range seqs {
			seqs[k] = rng.Perm(n)
		}

		eval := core.NewEvaluator(in)
		start := time.Now()
		for k := 0; k < evalReps; k++ {
			eval.Cost(seqs[k%len(seqs)])
		}
		full += float64(time.Since(start)) / evalReps

		de := core.NewDeltaEvaluator(in)
		base := seqs[0]
		de.Reset(base)
		cand := append([]int(nil), base...)
		pos := make([]int, 2)
		start = time.Now()
		for k := 0; k < evalReps; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			pos[0], pos[1] = a, b
			cand[a], cand[b] = cand[b], cand[a]
			de.Propose(cand, pos)
			cand[a], cand[b] = cand[b], cand[a]
		}
		delta += float64(time.Since(start)) / evalReps

		start = time.Now()
		core.InitialTemperature(eval, xrand.NewStream(seed, uint64(i)), t0Samples)
		t0 += ms(time.Since(start))
	}
	k := float64(len(insts))
	l.fullEvalNs, l.deltaEvalNs, l.t0EstimateMs = full/k, delta/k, t0/k
}

// heapAllocs reads the runtime's cumulative heap allocation, the
// MemStats.TotalAlloc figure, without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPUSeconds reads the runtime's cumulative GC and total CPU time.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// span is one traced interval. Spans of one request share Trace; Parent
// 0 marks the request's root, whose Row names the pairing and instance.
// Phases reported by Result.Metrics carry only a duration (DurationOnly)
// and hang under the call span.
type span struct {
	Trace        int64  `json:"trace"`
	ID           int    `json:"id"`
	Parent       int    `json:"parent"`
	Name         string `json:"name"`
	Row          string `json:"row,omitempty"`
	StartNs      int64  `json:"startNs"`
	DurNs        int64  `json:"durNs"`
	DurationOnly bool   `json:"durationOnly,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a request's root span and returns its ID (IDs start at 1);
// end closes it.
func (t *tracer) begin(trace int64, row string, start time.Time) int {
	return t.record(span{Trace: trace, Name: "request", Row: row, StartNs: int64(start.Sub(t.origin))})
}

func (t *tracer) end(id int, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].DurNs = int64(dur)
}

// add records a child span and returns its ID.
func (t *tracer) add(trace int64, parent int, name string, start time.Time, dur time.Duration) int {
	return t.record(span{
		Trace: trace, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.origin)), DurNs: int64(dur),
	})
}

// addPhases hangs the solve's phases under the call span as durations.
func (t *tracer) addPhases(trace int64, parent int, start time.Time, phases []core.PhaseMetric) {
	for _, p := range phases {
		t.record(span{
			Trace: trace, Parent: parent, Name: "phase." + p.Name,
			StartNs: int64(start.Sub(t.origin)), DurNs: int64(p.Wall), DurationOnly: true,
		})
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

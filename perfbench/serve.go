package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// The serve-deadline workload is an open loop against an in-process
// duedated (server.New behind net/http on loopback) over two keep-alive
// connections, each with its own fixed schedule:
//
//   - the deadline connection sends deadline-bearing cache misses at
//     deadlineRate: AUTO and SA/gpu with timeoutMs 20 and 200 in turn on
//     CDD and UCDDCP at n ∈ {100, 1000}, plus AUTO on a two-machine
//     EARLYWORK instance (its DP route);
//   - the cache connection sends, every cacheCycle, a small full-budget
//     miss that completes and so enters the cache (a write), then two
//     byte-identical resubmissions of earlier small misses (reads the
//     wire cache answers).
//
// Each connection carries one request at a time, so a request whose
// predecessor is still running waits; its latency runs from when it was
// due to be sent, so that wait counts.
//
// The latency metrics are taken over the small misses and the
// allocation metric over the cache connection, both only over the
// requests that no deadline-bearing request overlapped, from their
// scheduled send to their response ("clean" requests, about three in
// four). Those requests run to completion, so their figures are the
// program's own, while a deadline-bearing request's latency and
// allocation are mostly set by where its timeout cut the search. A
// small miss that shares the two cores with a deadline-bearing solve
// takes up to twice as long, and how many of them did so changed with
// the arrival pattern from run to run: the tail's interquartile spread
// over ten seeds reached half its median. As in the library workloads,
// the latency percentiles are over one median per row, here per small
// instance: pooled, the slowest tenth of the misses read how often the
// host stalled the process, which changed from run to run, and their
// p90 spread over ten seeds by twice as much as their median. The deadline contract has its own
// figures (deadline_miss_frac, overshoot_ratio_p50), and the wire-cache
// path its own (hit_latency_us_p50): a hit's sub-millisecond latency is
// mostly scheduling delay, which doubled from run to run with the load
// on the host. The cost gap is over the full-budget misses, whose fixed
// seeds make it repeatable.
//
// The rates and the write/read proportion are assumptions: there is no
// record of duedated's production traffic to take them from. Each
// constant gives its reason.
const (
	// deadlineRate is in requests per second. A deadline-bearing request
	// holds the pool for about its timeout, 110 ms on average, so at this
	// rate the deadline connection is busy about a sixth of the time: the
	// pool keeps room for the cache traffic, and a 30 s run still sends
	// about 45 deadline-bearing requests.
	deadlineRate = 1.5
	// cacheCycle offers about four small misses a second, which at about
	// 100 ms each need two fifths of one of the pool's two workers, so
	// the cache traffic stays well inside the pool's capacity (an open
	// loop past capacity grows its queue without bound), and a 30 s run
	// makes about 125 misses. Each cycle sends its miss, then two
	// resubmissions (see cacheSends).
	cacheCycle = 240 * time.Millisecond
	// The small misses cycle over smallInstances agreeable-CDD instances
	// of smallN jobs, inside the exact DP's domain, so each has a proven
	// optimum to check and measure against. A miss runs smallChains SA
	// chains, about 100 ms of work: at four or eight chains (about 25 or
	// 50 ms) the host's scheduling stalls were a large share of a miss,
	// and the latency tail moved from run to run half again as much as
	// the median.
	smallInstances = 32
	smallChains    = 16
	smallN         = 100
	// serveTail is the latency tail percentile (see tail): p90 of the
	// small instances' median latencies, the slowest few instances.
	serveTail = 0.90
	// nonDeadlineLimit is the latency limit goodput applies to requests
	// without a deadline, about three times a small miss's latency.
	nonDeadlineLimit = 300 * time.Millisecond
	// Generator health bounds: past either, the timers that pace the open
	// loop fired too late for its figures to describe the server.
	maxWakeP50 = 10 * time.Millisecond
	maxWakeMax = time.Second
)

// cacheSends are the cache connection's send times within a cycle: the
// miss at its start, then the resubmissions. Each instance is assumed to
// be submitted three times, once as a miss and twice more as
// resubmissions (a client retrying or re-asking for the same schedule,
// which is what the wire cache is for), so both the write and the read
// path run throughout every run. The resubmissions wait 150 ms, half
// again a miss's latency, so that they are not queued behind it.
var cacheSends = []time.Duration{0, 150 * time.Millisecond, 195 * time.Millisecond}

// deadlineSlack is ROADMAP item 2's deadline contract: an answer is on
// time within timeoutMs + max(5 ms, 10%).
func deadlineSlack(timeout time.Duration) time.Duration {
	return timeout + max(5*time.Millisecond, timeout/10)
}

type deadlineReq struct {
	alg       duedate.Algorithm
	engine    duedate.Engine
	inst      *instance
	timeoutMs int
}

type serveSession struct {
	seed     uint64
	srv      *server.Server
	httpSrv  *http.Server
	served   chan error
	base     string
	mix      []deadlineReq
	small    []*instance
	insts    []*instance
	clients  [2]*http.Client
	prevAuto map[string]obs.PhaseTotals
	// ids hands out request (trace) IDs across both loops.
	ids atomic.Int64
}

func setupServe(seed uint64, traced bool) (session, error) {
	big, err := instances(append(append(paperKinds(100, 1, seed), paperKinds(1000, 1, seed)...),
		func() (*duedate.Instance, error) { return genEarlyWork(100, 2, seed) })...)
	if err != nil {
		return nil, err
	}
	s := &serveSession{seed: seed, insts: big}
	for trial := 0; trial < smallInstances; trial++ {
		// Even trials are unrestrictive, which keeps the DP cheap.
		small, err := instances(func() (*duedate.Instance, error) { return genAgreeable(smallN, 2*trial, seed) })
		if err != nil {
			return nil, err
		}
		s.small = append(s.small, small...)
	}
	for _, timeout := range []int{20, 200} {
		for _, inst := range big[:4] {
			s.mix = append(s.mix,
				deadlineReq{duedate.Auto, duedate.EngineCPUParallel, inst, timeout},
				deadlineReq{duedate.SA, duedate.EngineGPU, inst, timeout})
		}
		s.mix = append(s.mix, deadlineReq{duedate.Auto, duedate.EngineCPUParallel, big[4], timeout})
	}

	level := duedate.MetricsCounters
	if traced {
		level = duedate.MetricsKernels
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = server.New(server.Config{Pool: runtime.GOMAXPROCS(0), Metrics: level})
	s.httpSrv = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// warmUp opens both connections and sends one small miss and its
// resubmission, outside the seeds the measured requests use.
func (s *serveSession) warmUp() error {
	body := s.smallBody(0, ^uint64(0)>>1)
	for _, c := range s.clients {
		for i := 0; i < 2; i++ {
			status, _, err := post(c, s.base+"/v1/solve", body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up solve answered %d", status)
			}
		}
	}
	return nil
}

func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		fmt.Println("note server shutdown:", err)
	}
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Println("note server drain:", err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("note server:", err)
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// smallBody is the body of the i-th small miss: SA on cpu-serial,
// cycling over the small instances.
func (s *serveSession) smallBody(i int, seed uint64) []byte {
	return fmt.Appendf(solveBody(s.small[i%len(s.small)], duedate.SA, duedate.EngineCPUSerial, seed),
		`,"grid":1,"block":%d,"iterations":100}`, smallChains)
}

// solveBody starts a /v1/solve body; the caller appends the remaining
// fields and the closing brace.
func solveBody(inst *instance, alg duedate.Algorithm, eng duedate.Engine, seed uint64) []byte {
	b := append([]byte(`{"instance":`), inst.wire...)
	return fmt.Appendf(b, `,"algorithm":%q,"engine":%q,"seed":%d`, alg, eng, seed)
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *serveSession) metricsSnapshot(c *http.Client) (*server.MetricsResponse, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// reqKind classifies the requests of the workload.
type reqKind int

const (
	kindDeadline reqKind = iota
	kindMiss
	kindHit
)

// servedReq is one answered (or failed) request.
type servedReq struct {
	kind      reqKind
	pairing   string
	inst      *instance
	timeout   time.Duration
	latency   time.Duration // from the scheduled send
	exchange  time.Duration // from the actual send
	ok        bool
	status    int
	resp      server.SolveResponse
	autoDiff  map[string]obs.PhaseTotals
	activeDen int // workers the solve's phases are summed over
	// alloc is the process's allocation while a cache-connection request
	// was in flight; when no deadline-bearing request overlapped it, it
	// is this request's (and the client's) alone.
	alloc uint64
	// trace, root and call identify the request's spans in a traced run,
	// sent when the call began.
	trace      int64
	root, call int
	// due, sent and done are when the request was scheduled, sent and
	// finished with: answered, and for a traced AUTO request its
	// /metrics snapshot taken.
	due, sent, done time.Time
}

// overlaps reports whether a cache-connection request, from its
// scheduled send to its response, overlapped a deadline-bearing request
// in flight.
func (r *servedReq) overlaps(deadline []servedReq) bool {
	for i := range deadline {
		if d := &deadline[i]; d.sent.Before(r.done) && r.due.Before(d.done) {
			return true
		}
	}
	return false
}

// loop is one connection's schedule and its results.
type loop struct {
	c *http.Client
	// at is request i's send time, as an offset from the run's start.
	at      func(i int) time.Duration
	out     *outcome
	reqs    []servedReq
	wake    []float64 // timer lateness of sends that waited for their slot, ms
	backlog []float64 // lateness of every send against its schedule, ms
}

// spinWindow is how long before a send the pacer stops sleeping and
// spins: the runtime's timers can wake about a millisecond late, which
// would otherwise count into every latency.
const spinWindow = 2 * time.Millisecond

// pace waits until request i's scheduled send time and records how late
// the send is.
func (l *loop) pace(start time.Time, i int) time.Time {
	due := start.Add(l.at(i))
	if time.Until(due) > 0 {
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		l.wake = append(l.wake, ms(time.Since(due)))
	}
	l.backlog = append(l.backlog, ms(time.Since(due)))
	return due
}

func (s *serveSession) run(budget time.Duration, traced bool, tr *tracer) *outcome {
	out := &outcome{layers: newLayers(), tailQ: serveTail}
	m0, err := s.metricsSnapshot(s.clients[1])
	if err != nil {
		out.gate.fail(fmt.Sprintf("/metrics: %v", err))
		return out
	}
	s.prevAuto = autoPhases(m0)
	loops := []*loop{
		{c: s.clients[0], at: func(i int) time.Duration { return time.Duration(float64(i) * float64(time.Second) / deadlineRate) },
			out: &outcome{layers: newLayers()}},
		{c: s.clients[1], at: func(i int) time.Duration {
			return time.Duration(i/len(cacheSends))*cacheCycle + cacheSends[i%len(cacheSends)]
		}, out: &outcome{layers: newLayers()}},
	}
	gc0, cpu0 := gcCPUSeconds()
	start := time.Now()
	end := start.Add(budget)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.deadlineLoop(loops[0], start, end, traced, tr)
	}()
	go func() {
		defer wg.Done()
		s.cacheLoop(loops[1], start, end, traced, tr)
	}()
	wg.Wait()
	out.wall = time.Since(start)
	gc1, cpu1 := gcCPUSeconds()
	out.gcFrac = frac(gc1-gc0, cpu1-cpu0)
	m1, err := s.metricsSnapshot(s.clients[1])
	if err != nil {
		out.gate.fail(fmt.Sprintf("/metrics: %v", err))
		return out
	}

	var reqs []servedReq
	var wake, backlog []float64
	for _, l := range loops {
		reqs = append(reqs, l.reqs...)
		wake = append(wake, l.wake...)
		backlog = append(backlog, l.backlog...)
		out.merge(l.out)
	}
	s.summarize(out, reqs, loops[0].reqs, m0, m1, traced)

	wakeP50, wakeMax := quantile(wake, 0.5), quantile(wake, 1)
	out.notes = append(out.notes, fmt.Sprintf(
		"generator timer lateness p50 %.3f ms max %.3f ms over %d paced sends; send lateness against schedule p50 %.3f ms max %.3f ms over %d sends",
		wakeP50, wakeMax, len(wake), quantile(backlog, 0.5), quantile(backlog, 1), len(backlog)))
	if wakeP50 > ms(maxWakeP50) || wakeMax > ms(maxWakeMax) {
		out.invalid = fmt.Sprintf("open-loop generator lateness p50 %.3f ms / max %.3f ms exceeds the %v / %v bound",
			wakeP50, wakeMax, maxWakeP50, maxWakeMax)
	}
	return out
}

func (s *serveSession) deadlineLoop(l *loop, start, end time.Time, traced bool, tr *tracer) {
	for i := 0; ; i++ {
		if start.Add(l.at(i)).After(end) {
			return
		}
		d := s.mix[i%len(s.mix)]
		body := fmt.Appendf(solveBody(d.inst, d.alg, d.engine, rowSeed(s.seed, 1<<20+i)),
			`,"timeoutMs":%d}`, d.timeoutMs)
		r := servedReq{kind: kindDeadline, pairing: pairingName(d.alg, d.engine), inst: d.inst,
			timeout: time.Duration(d.timeoutMs) * time.Millisecond}
		s.exchange(l, l.pace(start, i), body, &r, traced, tr)
		if d.alg == duedate.Auto && traced && r.ok {
			r.autoDiff = s.autoDiff(l)
			r.activeDen = autoActive(r.autoDiff)
			phases := make([]core.PhaseMetric, 0, len(r.autoDiff))
			for name, p := range r.autoDiff {
				phases = append(phases, core.PhaseMetric{Name: name, Wall: p.Wall, Sim: p.Sim, Count: p.Count})
			}
			tr.addPhases(r.trace, r.call, r.sent, phases)
			r.done = time.Now()
		}
		l.reqs = append(l.reqs, r)
	}
}

func (s *serveSession) cacheLoop(l *loop, start, end time.Time, traced bool, tr *tracer) {
	type written struct {
		body []byte
		inst *instance
		cost int64
	}
	var done []written
	misses, hits := 0, 0
	for i := 0; ; i++ {
		if start.Add(l.at(i)).After(end) {
			return
		}
		if i%len(cacheSends) == 0 || len(done) == 0 {
			body := s.smallBody(misses, rowSeed(s.seed, 1<<21+misses))
			inst := s.small[misses%len(s.small)]
			misses++
			r := servedReq{kind: kindMiss, pairing: pairingName(duedate.SA, duedate.EngineCPUSerial), inst: inst}
			s.exchange(l, l.pace(start, i), body, &r, traced, tr)
			if r.ok && !r.resp.Interrupted {
				done = append(done, written{body, inst, r.resp.Cost})
				l.out.fp.add(r.pairing, inst.in.Name, r.resp.Seed, r.resp.Cost)
			}
			l.reqs = append(l.reqs, r)
			continue
		}
		w := done[hits%len(done)]
		hits++
		r := servedReq{kind: kindHit, pairing: "resubmission", inst: w.inst}
		s.exchange(l, l.pace(start, i), w.body, &r, traced, tr)
		if r.ok && r.resp.Cost != w.cost {
			l.out.gate.fail(fmt.Sprintf("resubmission on %s: cost %d, first answer %d", w.inst.in.Name, r.resp.Cost, w.cost))
			r.ok = false
		}
		l.reqs = append(l.reqs, r)
	}
}

// exchange sends and checks one request of a loop, due at due.
func (s *serveSession) exchange(l *loop, due time.Time, body []byte, r *servedReq, traced bool, tr *tracer) {
	trace := s.ids.Add(1)
	r.trace = trace
	r.activeDen = 1
	if traced {
		r.root = tr.begin(trace, r.pairing+" "+r.inst.in.Name, due)
		l.out.decodeAndHash(tr, trace, r.root, r.inst)
	}
	alloc0 := heapAllocs()
	r.due, r.sent = due, time.Now()
	status, b, err := post(l.c, s.base+"/v1/solve", body)
	r.done = time.Now()
	if r.kind != kindDeadline {
		r.alloc = heapAllocs() - alloc0
	}
	r.latency, r.exchange, r.status = r.done.Sub(due), r.done.Sub(r.sent), status
	l.out.attempted++
	if traced {
		r.call = tr.add(trace, r.root, "http.POST", r.sent, r.exchange)
		tr.end(r.root, r.latency)
	}
	label := r.pairing
	switch {
	case err != nil:
		l.out.gate.fail(fmt.Sprintf("%s on %s: %v", label, r.inst.in.Name, err))
		return
	case status != http.StatusOK:
		l.out.gate.fail(fmt.Sprintf("%s on %s: HTTP %d: %s", label, r.inst.in.Name, status, strings.TrimSpace(string(b))))
		return
	}
	if err := json.Unmarshal(b, &r.resp); err != nil {
		l.out.gate.fail(fmt.Sprintf("%s on %s: decode response: %v", label, r.inst.in.Name, err))
		return
	}
	r.ok = l.out.gate.check(r.inst, label, answer{r.resp.Sequence, r.resp.Cost, r.resp.Optimal})
}

// autoPhases extracts the phases only AUTO emits (pick, dp and the race
// lanes) from a /metrics snapshot. Nothing else the workload sends
// emits them, so the difference between two snapshots taken around one
// AUTO request on the sequential deadline connection is that request's.
func autoPhases(m *server.MetricsResponse) map[string]obs.PhaseTotals {
	out := map[string]obs.PhaseTotals{}
	for name, p := range m.Solver.Phases {
		if name == "pick" || name == "dp" || strings.HasPrefix(name, racePrefix) {
			out[name] = p
		}
	}
	return out
}

func (s *serveSession) autoDiff(l *loop) map[string]obs.PhaseTotals {
	m, err := s.metricsSnapshot(l.c)
	if err != nil {
		l.out.gate.fail(fmt.Sprintf("/metrics: %v", err))
		return nil
	}
	cur := autoPhases(m)
	diff := map[string]obs.PhaseTotals{}
	for name, p := range cur {
		prev := s.prevAuto[name]
		if p.Count > prev.Count {
			diff[name] = obs.PhaseTotals{Wall: p.Wall - prev.Wall, Sim: p.Sim - prev.Sim, Count: p.Count - prev.Count}
		}
	}
	s.prevAuto = cur
	return diff
}

// autoActive is the number of goroutines an AUTO solve's phase walls sum
// over: its race lanes when it raced, else one. Over HTTP the engine a
// dispatch chose is not reported, so a dispatch to a cpu-parallel engine
// is counted as one worker too (see README.md).
func autoActive(diff map[string]obs.PhaseTotals) int {
	lanes := 0
	for name := range diff {
		if strings.HasPrefix(name, racePrefix) {
			lanes++
		}
	}
	return max(lanes, 1)
}

// merge folds a loop's accumulators into the run's.
func (o *outcome) merge(l *outcome) {
	o.attempted += l.attempted
	o.gate.violations += l.gate.violations
	for _, v := range l.gate.first {
		if len(o.gate.first) < keepViolations {
			o.gate.first = append(o.gate.first, v)
		}
	}
	o.fp.records = append(o.fp.records, l.fp.records...)
	o.layers.decodeUs = append(o.layers.decodeUs, l.layers.decodeUs...)
	o.layers.hashUs = append(o.layers.hashUs, l.layers.hashUs...)
}

// summarize computes the serve workload's metrics from its requests (the
// deadline-bearing ones among them also in deadline) and the server's
// /metrics counters before and after the run.
func (s *serveSession) summarize(out *outcome, reqs, deadline []servedReq, m0, m1 *server.MetricsResponse, traced bool) {
	var gaps, deadlineGaps, overshoot, hitUs []float64
	// The clean small misses' latencies, grouped by instance: the rows
	// of this workload.
	rowLat := make(map[*instance][]float64)
	var sims float64
	deadlines, missed, good := 0, 0, 0
	// The allocation of the cache connection's requests that no
	// deadline-bearing request overlapped, and the solves among them.
	var cleanAlloc uint64
	cleanReqs, cleanSolves := 0, 0
	lay := out.layers
	var capacity time.Duration
	for _, r := range reqs {
		lay.requests++
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			lay.rejected++
		}
		limit := nonDeadlineLimit
		if r.kind == kindDeadline {
			deadlines++
			limit = deadlineSlack(r.timeout)
			if !r.ok || r.latency > limit {
				missed++
			}
			if r.ok {
				overshoot = append(overshoot, float64(r.latency)/float64(r.timeout))
			}
		}
		if !r.ok {
			continue
		}
		if r.latency <= limit {
			good++
		}
		if r.kind != kindDeadline && !r.overlaps(deadline) {
			cleanAlloc += r.alloc
			cleanReqs++
			if !r.resp.Cached {
				cleanSolves++
				rowLat[r.inst] = append(rowLat[r.inst], ms(r.latency))
			}
		}
		if r.resp.Cached {
			lay.cacheHits++
			hitUs = append(hitUs, float64(r.latency)/1e3)
			continue
		}
		out.solves++
		gap := core.PercentDeviation(r.resp.Cost, r.inst.ref)
		if r.kind == kindDeadline {
			deadlineGaps = append(deadlineGaps, gap)
		} else {
			gaps = append(gaps, gap)
		}
		sims += r.resp.SimSeconds
		lay.solves++
		lay.evals += r.resp.Evaluations
		if r.resp.Interrupted {
			lay.interrupted++
		}
		elapsed := time.Duration(r.resp.ElapsedNs)
		lay.overheadMs = append(lay.overheadMs, ms(r.exchange-elapsed))
		capacity += elapsed * time.Duration(r.activeDen)
		s.observeRow(lay, r)
	}
	var lat []float64
	for _, inst := range s.small {
		if l := rowLat[inst]; len(l) > 0 {
			lat = append(lat, quantile(l, 0.5))
		}
	}
	solves := float64(out.solves)
	wall := out.wall.Seconds()
	out.latency = lat
	out.e2e = []metric{
		{"latency_ms_p50", "ms", hdQuantile(lat, 0.5), fmt.Sprintf("over %d small instances' median latencies", len(lat))},
		tailMetric("latency_ms_tail", "ms", lat, serveTail, "rows"),
		{"solves_per_s", "1/s", solves / wall, "set by the open-loop schedule unless a connection falls behind"},
		{"cost_gap_pct", "%", mean(gaps), "full-budget misses: mean PercentDeviation from the reference cost"},
		{"deadline_cost_gap_pct", "%", mean(deadlineGaps), "deadline-bearing requests, likewise"},
		{"failed_frac", "frac", frac(float64(out.gate.violations), float64(out.attempted)), ""},
		{"alloc_mb_per_solve", "MB", frac(float64(cleanAlloc)/1e6, float64(cleanSolves)),
			fmt.Sprintf("client and server, over %d cache-connection requests (%d solves) no deadline-bearing request overlapped", cleanReqs, cleanSolves)},
		{"deadline_miss_frac", "frac", frac(float64(missed), float64(deadlines)), fmt.Sprintf("of %d deadline-bearing requests", deadlines)},
		{"overshoot_ratio_p50", "ratio", quantile(overshoot, 0.5), "latency / timeoutMs"},
		{"goodput_rps", "1/s", float64(good) / wall, fmt.Sprintf("offered %.1f/s", float64(len(reqs))/wall)},
		{"hit_latency_us_p50", "us", quantile(hitUs, 0.5), fmt.Sprintf("%d wire-cache hits", len(hitUs))},
	}
	if sims > 0 {
		out.e2e = append(out.e2e, metric{"sim_s_per_solve", "s", sims / solves, "mean SimSeconds over misses"})
	}
	if !traced {
		return
	}
	d := m1.Solver
	for name, p := range d.Phases {
		p0 := m0.Solver.Phases[name]
		acc := lay.phase(name)
		acc.wall += p.Wall - p0.Wall
		acc.sim += p.Sim - p0.Sim
		acc.count += p.Count - p0.Count
		lay.busy += p.Wall - p0.Wall
		if acc.sim > 0 {
			lay.launches += acc.count
		}
	}
	lay.capacity = capacity
	lay.full = d.Totals.FullEvaluations - m0.Solver.Totals.FullEvaluations
	lay.delta = d.Totals.DeltaEvaluations - m0.Solver.Totals.DeltaEvaluations
	lay.saAccepted = d.Totals.Acceptances - m0.Solver.Totals.Acceptances
	lay.saDelta = lay.delta
	lay.timeDirect(s.insts, s.seed)
}

// observeRow adds a solved request to the row table and the AUTO and
// exact-layer tallies.
func (s *serveSession) observeRow(lay *layers, r servedReq) {
	key := fmt.Sprintf("%-22s %-22s", r.pairing, r.inst.label())
	row := lay.rows[key]
	if row == nil {
		row = &rowAcc{}
		lay.rows[key] = row
	}
	row.solves++
	row.wall += time.Duration(r.resp.ElapsedNs)
	row.evals += r.resp.Evaluations
	if r.resp.Algorithm != duedate.Auto || r.autoDiff == nil {
		return
	}
	lay.autoSolves++
	if r.autoDiff["dp"].Count > 0 {
		lay.autoDP++
		lay.dpAttempts++
		if r.resp.Optimal {
			lay.certified++
		}
	}
	var laneMax, lanes time.Duration
	for name, p := range r.autoDiff {
		if strings.HasPrefix(name, racePrefix) {
			lanes += p.Wall
			laneMax = max(laneMax, p.Wall)
		}
	}
	if lanes > 0 {
		// Over HTTP the winner is not reported; the lane that ran longest
		// is taken as it, since culled lanes stop at the checkpoint.
		lay.autoRaces++
		lay.raceWall += lanes
		lay.raceLoserWall += lanes - laneMax
	}
}

package main

import (
	"math"
	"testing"
	"time"

	duedate "repro"
	"repro/internal/exact"
)

func mustInstance(t *testing.T, gen func() (*duedate.Instance, error)) *instance {
	t.Helper()
	insts, err := instances(gen)
	if err != nil {
		t.Fatal(err)
	}
	return insts[0]
}

func TestGate(t *testing.T) {
	dp := mustInstance(t, func() (*duedate.Instance, error) { return genAgreeable(12, 0, 1) })
	if !dp.hasOpt {
		t.Fatalf("agreeable instance %s has no DP optimum", dp.in.Name)
	}
	heur := mustInstance(t, func() (*duedate.Instance, error) { return genCDD(10, 0, 1) })
	if heur.hasOpt {
		t.Fatalf("general CDD instance %s unexpectedly inside the DP's domain", heur.in.Name)
	}
	identity := func(inst *instance) []int {
		seq := make([]int, inst.in.GenomeLen())
		for i := range seq {
			seq[i] = i
		}
		return seq
	}
	costOf := func(inst *instance, seq []int) int64 {
		c, err := duedate.Cost(inst.in, seq)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	opt, err := exact.SolveDP(dp.in)
	if err != nil {
		t.Fatal(err)
	}
	dpSeq, heurSeq := identity(dp), identity(heur)
	dpCost, heurCost := costOf(dp, dpSeq), costOf(heur, heurSeq)
	dup := append([]int(nil), heurSeq...)
	dup[0] = dup[1]
	// A proven optimum above an honestly evaluated cost: the gate must
	// reject the answer for beating it.
	belowOpt := *dp
	belowOpt.opt = dpCost + 1

	cases := []struct {
		name string
		inst *instance
		a    answer
		pass bool
	}{
		{"honest answer", heur, answer{heurSeq, heurCost, false}, true},
		{"honest optimum claim", dp, answer{opt.Seq, dp.opt, true}, true},
		{"fabricated wrong cost", heur, answer{heurSeq, heurCost - 1, false}, false},
		{"not a permutation", heur, answer{dup, heurCost, false}, false},
		{"short sequence", heur, answer{heurSeq[1:], heurCost, false}, false},
		{"cost below the proven optimum", &belowOpt, answer{dpSeq, dpCost, false}, false},
		{"optimality claim outside the DP's domain", heur, answer{heurSeq, heurCost, true}, false},
		{"optimality claim above the optimum", dp, answer{dpSeq, dpCost, true}, dpCost == dp.opt},
	}
	for _, c := range cases {
		var g gate
		if got := g.check(c.inst, "test", c.a); got != c.pass {
			t.Errorf("%s: check = %v, want %v (%v)", c.name, got, c.pass, g.first)
		}
		if want := map[bool]int{true: 0, false: 1}[c.pass]; g.violations != want {
			t.Errorf("%s: %d violations recorded, want %d", c.name, g.violations, want)
		}
	}
}

func TestSelectMetricsRequiresEveryDeclaredMetric(t *testing.T) {
	declared := []specMetric{{"a", "ms"}, {"b", "s"}}
	if _, err := selectMetrics(declared, []metric{{name: "a", unit: "ms", value: 1}}); err == nil {
		t.Error("missing metric b accepted")
	}
	if _, err := selectMetrics(declared, []metric{{name: "a", unit: "ms"}, {name: "b", unit: "ms"}}); err == nil {
		t.Error("metric b in the wrong unit accepted")
	}
	got, err := selectMetrics(declared, []metric{{name: "a", unit: "ms", value: 1}, {name: "b", unit: "s", value: 2}, {name: "c", unit: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("got %d metrics, want exactly the 2 declared", len(got))
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50) > 1e-6 {
		t.Errorf("median of 0..100 = %v, want 50", got)
	}
	if got := hdQuantile(xs, 0.9); got < 85 || got > 95 {
		t.Errorf("p90 of 0..100 = %v, want about 90", got)
	}
	if got := hdQuantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("median of {7} = %v", got)
	}
	// Two groups of 50 with a gap between them: the median estimate lies
	// in the gap, not on either side of it.
	gap := make([]float64, 100)
	for i := range gap {
		gap[i] = 10
		if i >= 50 {
			gap[i] = 20
		}
	}
	if got := hdQuantile(gap, 0.5); math.Abs(got-15) > 1e-6 {
		t.Errorf("median across an even gap = %v, want 15", got)
	}
}

func TestTailCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	tl := tailOf(xs, 0.9, "samples")
	if tl.n != 100 || tl.beyond != 10 {
		t.Errorf("tail of 0..99 = %+v, want 10 samples beyond p90", tl)
	}
}

// TestServeRun drives a short traced serve-deadline run: both loops, the
// shared tracer and the /metrics snapshots run concurrently, so run it
// under -race too.
func TestServeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and solves for seconds")
	}
	sess, err := setupServe(1, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	out := sess.run(2*time.Second, true, tr)
	sess.close()
	if out.gate.violations > 0 || out.attempted == 0 {
		t.Fatalf("%d of %d requests failed: %v", out.gate.violations, out.attempted, out.gate.first)
	}
	if out.layers.cacheHits == 0 {
		t.Error("no resubmission was answered from the cache")
	}
	roots := 0
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots++
			if s.Name != "request" || s.Row == "" {
				t.Errorf("root span %+v is not a named request", s)
			}
		}
	}
	if roots != out.attempted {
		t.Errorf("%d root spans for %d requests", roots, out.attempted)
	}
}

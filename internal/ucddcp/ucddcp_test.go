package ucddcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cdd"
	"repro/internal/problem"
)

// TestPaperExampleUCDDCP reproduces the worked example of Section IV-B:
// Table I data, identity sequence, d = 22. The paper reports an optimal
// penalty of 77, with jobs 4 and 5 compressed to their minimum processing
// times and job 2 completing at the due date.
func TestPaperExampleUCDDCP(t *testing.T) {
	in := problem.PaperExample(problem.UCDDCP)
	res := OptimizeSequence(in, problem.IdentitySequence(5))
	if res.Cost != 77 {
		t.Errorf("paper example cost = %d, want 77", res.Cost)
	}
	if res.DueJob != 2 {
		t.Errorf("due-date job position = %d, want 2", res.DueJob)
	}
	wantX := []int64{0, 0, 0, 1, 1}
	for i, w := range wantX {
		if res.X[i] != w {
			t.Errorf("X[%d] = %d, want %d (full X=%v)", i, res.X[i], w, res.X)
		}
	}
	// The reported cost must be the exact objective of the reported
	// schedule.
	if c := problem.SequenceCost(in, problem.IdentitySequence(5), res.Start, res.X); c != res.Cost {
		t.Errorf("schedule evaluates to %d, result claims %d", c, res.Cost)
	}
}

// TestPaperExampleIntermediateCompression replays the two compression steps
// the paper illustrates in Figures 5 and 6: compressing job 5 improves the
// CDD-optimal schedule by 1, compressing job 4 by another 3.
func TestPaperExampleIntermediateCompression(t *testing.T) {
	in := problem.PaperExample(problem.UCDDCP)
	seq := problem.IdentitySequence(5)
	// CDD-optimal timing of the uncompressed sequence has cost 81 at d=22.
	none := problem.SequenceCost(in, seq, 11, nil)
	if none != 81 {
		t.Fatalf("uncompressed cost = %d, want 81", none)
	}
	withJob5 := problem.SequenceCost(in, seq, 11, []int64{0, 0, 0, 0, 1})
	if none-withJob5 != 1 {
		t.Errorf("compressing job 5 improves by %d, want 1", none-withJob5)
	}
	withBoth := problem.SequenceCost(in, seq, 11, []int64{0, 0, 0, 1, 1})
	if withJob5-withBoth != 3 {
		t.Errorf("compressing job 4 improves by %d, want 3", withJob5-withBoth)
	}
	if withBoth != 77 {
		t.Errorf("final cost = %d, want 77", withBoth)
	}
}

// randomInstance builds a random unrestricted controllable instance.
// maxU bounds the per-job compression capacity.
func randomInstance(rng *rand.Rand, n, maxU int) *problem.Instance {
	p := make([]int, n)
	m := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	gamma := make([]int, n)
	var sum int64
	for i := 0; i < n; i++ {
		p[i] = 2 + rng.Intn(12)
		u := rng.Intn(maxU + 1)
		if u >= p[i] {
			u = p[i] - 1
		}
		m[i] = p[i] - u
		alpha[i] = 1 + rng.Intn(10)
		beta[i] = 1 + rng.Intn(15)
		gamma[i] = 1 + rng.Intn(10)
		sum += int64(p[i])
	}
	d := sum + int64(rng.Intn(int(sum/2+1)))
	in, err := problem.NewUCDDCP("rand", p, m, alpha, beta, gamma, d)
	if err != nil {
		panic(err)
	}
	return in
}

func randomSequence(rng *rand.Rand, n int) []int {
	seq := problem.IdentitySequence(n)
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// hasCrossing reports whether any tardy-side job of the result finished
// strictly before the due date — the regime where the paper's
// all-or-nothing rule can overshoot.
func hasCrossing(in *problem.Instance, seq []int, res Result) bool {
	s := problem.Schedule{Seq: seq, Start: res.Start, X: res.X}
	comps := s.Completions(in)
	for pos := res.DueJob; pos < len(seq); pos++ {
		if comps[pos] < in.D {
			return true
		}
	}
	return false
}

// TestAgainstReference cross-checks the linear algorithm against the
// exhaustive compression oracle. Outside the crossing regime the linear
// algorithm must be exact; inside it, it must stay feasible (never below
// the true optimum) and within a small factor.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	crossings, exact, trials := 0, 0, 0
	var worstGap float64
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		in := randomInstance(rng, n, 2)
		seq := randomSequence(rng, n)
		got := OptimizeSequence(in, seq)
		want := ReferenceOptimize(in, seq)
		trials++
		if got.Cost < want.Cost {
			t.Fatalf("trial %d: linear algorithm %d beats exhaustive optimum %d — oracle or feasibility bug\njobs=%+v d=%d seq=%v x=%v",
				trial, got.Cost, want.Cost, in.Jobs, in.D, seq, got.X)
		}
		if hasCrossing(in, seq, got) {
			crossings++
			gap := float64(got.Cost-want.Cost) / float64(maxI64(want.Cost, 1))
			if gap > worstGap {
				worstGap = gap
			}
			continue
		}
		if got.Cost != want.Cost {
			t.Fatalf("trial %d (no crossing): linear %d != optimum %d\njobs=%+v d=%d seq=%v gotX=%v wantX=%v",
				trial, got.Cost, want.Cost, in.Jobs, in.D, seq, got.X, want.X)
		}
		exact++
	}
	t.Logf("trials=%d exact=%d crossing=%d worst crossing gap=%.3f", trials, exact, crossings, worstGap)
	if exact == 0 {
		t.Error("no crossing-free trials at all; generator regime is wrong")
	}
	if worstGap > 0.5 {
		t.Errorf("crossing-regime overshoot too large: %.3f", worstGap)
	}
}

// TestCrossingRegime forces the regime where compression capacity can
// exceed residual tardiness (large U, tight unrestricted due date). The
// all-or-nothing rule may then overshoot; assert it stays feasible and
// close to the exhaustive optimum, and that crossing actually occurs so
// the code path is exercised.
func TestCrossingRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	crossings, trials := 0, 0
	var worstGap float64
	for trial := 0; trial < 250; trial++ {
		n := 2 + rng.Intn(5)
		in := randomInstance(rng, n, 10) // capacity up to P-1
		in.D = in.SumP()                 // tightest unrestricted due date
		seq := randomSequence(rng, n)
		got := OptimizeSequence(in, seq)
		want := ReferenceOptimize(in, seq)
		trials++
		if got.Cost < want.Cost {
			t.Fatalf("trial %d: %d beats optimum %d", trial, got.Cost, want.Cost)
		}
		if hasCrossing(in, seq, got) {
			crossings++
		}
		gap := float64(got.Cost-want.Cost) / float64(maxI64(want.Cost, 1))
		if gap > worstGap {
			worstGap = gap
		}
	}
	t.Logf("trials=%d crossings=%d worstGap=%.3f", trials, crossings, worstGap)
	if worstGap > 1.0 {
		t.Errorf("overshoot beyond documented bound: %.3f", worstGap)
	}
}

// TestQuickFeasibility uses testing/quick: the result must always describe
// a feasible schedule whose exact evaluation equals the reported cost, and
// compressions must respect the per-job bounds.
func TestQuickFeasibility(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	property := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%10)
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, n, 4)
		seq := randomSequence(rng, n)
		res := OptimizeSequence(in, seq)
		s := problem.Schedule{Seq: seq, Start: res.Start, X: res.X}
		if err := s.Validate(in); err != nil {
			return false
		}
		return s.Cost(in) == res.Cost
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestCompressionNeverHurts asserts the compression phase never returns a
// worse cost than the plain CDD timing of the same sequence.
func TestCompressionNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		in := randomInstance(rng, n, 3)
		seq := randomSequence(rng, n)
		res := OptimizeSequence(in, seq)
		plain := problem.SequenceCost(in, seq, res.Start, nil)
		// Compare against the best uncompressed timing instead of the same
		// start: the plain CDD optimum of the sequence.
		uncompressed := cdd.OptimizeSequence(in, seq).Cost
		if res.Cost > uncompressed {
			t.Fatalf("trial %d: compression phase worsened cost: %d > %d (plain at same start %d)",
				trial, res.Cost, uncompressed, plain)
		}
	}
}

// TestNoCompressionCapacity checks that an instance with M == P everywhere
// reduces exactly to the CDD optimum.
func TestNoCompressionCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		in := randomInstance(rng, n, 0)
		seq := randomSequence(rng, n)
		res := OptimizeSequence(in, seq)
		if want := cdd.OptimizeSequence(in, seq).Cost; res.Cost != want {
			t.Fatalf("trial %d: with zero capacity cost %d, CDD optimum %d", trial, res.Cost, want)
		}
		for i, x := range res.X {
			if x != 0 {
				t.Fatalf("trial %d: job %d compressed by %d with zero capacity", trial, i, x)
			}
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func BenchmarkOptimizeSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 1000} {
		in := randomInstance(rng, n, 5)
		seq := randomSequence(rng, n)
		p, m, alpha, beta, gamma := ParamArrays(in)
		comp, scratch := make([]int64, n), make([]int64, n)
		name := map[int]string{10: "n10", 100: "n100", 1000: "n1000"}[n]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				OptimizeArrays(seq, p, m, alpha, beta, gamma, in.D, comp, scratch, nil)
			}
		})
	}
}

package cdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/problem"
)

// TestPaperExampleCDD reproduces the worked example of Section IV-A:
// jobs of Table I, identity sequence, d = 16. The paper reports an optimal
// penalty of 81 with job 2 completing at the due date after a total right
// shift of 5.
func TestPaperExampleCDD(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	res := OptimizeSequence(in, problem.IdentitySequence(5))
	if res.Cost != 81 {
		t.Errorf("paper example cost = %d, want 81", res.Cost)
	}
	if res.Start != 5 {
		t.Errorf("paper example start = %d, want 5", res.Start)
	}
	if res.DueJob != 2 {
		t.Errorf("paper example due-date job position = %d, want 2", res.DueJob)
	}
}

// TestPaperExampleIntermediate checks the intermediate states the paper
// illustrates: with start 0, the initial earliness/tardiness penalty sums
// are pe = 22 and pl = 5 (Figure 1), and the resulting schedule cost can be
// recomputed exactly from a Schedule value.
func TestPaperExampleIntermediate(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	seq := problem.IdentitySequence(5)
	s := problem.Schedule{Seq: seq, Start: 5}
	if got := s.Cost(in); got != 81 {
		t.Errorf("schedule cost at start 5 = %d, want 81", got)
	}
	comps := s.Completions(in)
	want := []int64{11, 16, 18, 22, 26}
	for i := range want {
		if comps[i] != want[i] {
			t.Errorf("completion[%d] = %d, want %d", i, comps[i], want[i])
		}
	}
	if pos := s.DueDatePosition(in); pos != 2 {
		t.Errorf("due-date position = %d, want 2", pos)
	}
}

func TestOptimizeMatchesScheduleCost(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	seq := []int{4, 2, 0, 3, 1}
	res := OptimizeSequence(in, seq)
	s := problem.Schedule{Seq: seq, Start: res.Start}
	if got := s.Cost(in); got != res.Cost {
		t.Errorf("Optimize cost %d disagrees with Schedule.Cost %d", res.Cost, got)
	}
}

// randomInstance builds a random CDD instance in the OR-library parameter
// regime, with a due-date factor h drawn from the benchmark set.
func randomInstance(rng *rand.Rand, n int) *problem.Instance {
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum int64
	for i := 0; i < n; i++ {
		p[i] = 1 + rng.Intn(20)
		alpha[i] = 1 + rng.Intn(10)
		beta[i] = 1 + rng.Intn(15)
		sum += int64(p[i])
	}
	hs := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	d := int64(float64(sum) * hs[rng.Intn(len(hs))])
	in, err := problem.NewCDD("rand", p, alpha, beta, d)
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

// TestAgainstReference cross-checks the O(n) optimizer against the
// exhaustive start-time oracle on many random instances and sequences,
// including restrictive (h<1) and unrestricted (h≥1) due dates.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(9)
		in := randomInstance(rng, n)
		seq := randomSequence(rng, n)
		got := OptimizeSequence(in, seq)
		want := ReferenceOptimize(in, seq)
		if got.Cost != want.Cost {
			t.Fatalf("trial %d (n=%d, d=%d): linear algorithm cost %d (start %d), reference %d (start %d)\njobs=%+v seq=%v",
				trial, n, in.D, got.Cost, got.Start, want.Cost, want.Start, in.Jobs, seq)
		}
		// The claimed start must actually achieve the claimed cost.
		if c := problem.SequenceCost(in, seq, got.Start, nil); c != got.Cost {
			t.Fatalf("trial %d: reported start %d evaluates to %d, not %d", trial, got.Start, c, got.Cost)
		}
	}
}

// TestCostArraysMatchesOptimize pins the cost-only pass CostArrays to
// the fused OptimizeArrays pass, bit for bit, over random instances,
// random sequences and degenerate due dates.
func TestCostArraysMatchesOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(50)
		in := randomInstance(rng, n)
		var sum int64
		for _, j := range in.Jobs {
			sum += int64(j.P)
		}
		for _, d := range []int64{in.D, 0, 1, sum, sum + 3} {
			p, alpha, beta := ParamArrays(in)
			seq := randomSequence(rng, n)
			want, _, _, _ := OptimizeArrays(seq, p, alpha, beta, d, make([]int64, n))
			if got := CostArrays(seq, p, alpha, beta, d); got != want {
				t.Fatalf("trial %d (n=%d, d=%d): Cost %d != Optimize %d\njobs=%+v seq=%v",
					trial, n, d, got, want, in.Jobs, seq)
			}
		}
	}
}

// TestQuickProperty runs testing/quick over instance encodings: the linear
// algorithm must never beat the exhaustive oracle (it solves the same
// problem) nor lose to it.
func TestQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(7))}
	property := func(raw []uint16, h uint8) bool {
		n := len(raw)/3 + 1
		if n > 8 {
			n = 8
		}
		rng := rand.New(rand.NewSource(int64(h) + int64(n)))
		in := randomInstance(rng, n)
		seq := randomSequence(rng, n)
		return OptimizeSequence(in, seq).Cost == ReferenceOptimize(in, seq).Cost
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestSingleJob exercises the degenerate n = 1 cases: a job shorter than
// the due date can always complete exactly at d for zero penalty; a job
// longer than d must start at zero and pay β·(P−d).
func TestSingleJob(t *testing.T) {
	in, err := problem.NewCDD("one", []int{5}, []int{3}, []int{7}, 12)
	if err != nil {
		t.Fatal(err)
	}
	res := OptimizeSequence(in, []int{0})
	if res.Cost != 0 || res.Start != 7 {
		t.Errorf("short job: cost=%d start=%d, want 0 and 7", res.Cost, res.Start)
	}
	in2, err := problem.NewCDD("long", []int{20}, []int{3}, []int{7}, 12)
	if err != nil {
		t.Fatal(err)
	}
	res2 := OptimizeSequence(in2, []int{0})
	if res2.Cost != 7*8 || res2.Start != 0 {
		t.Errorf("long job: cost=%d start=%d, want 56 and 0", res2.Cost, res2.Start)
	}
}

// TestAllTardy covers τ = 0: even the first job cannot complete by d.
func TestAllTardy(t *testing.T) {
	in, err := problem.NewCDD("tardy", []int{10, 10}, []int{5, 5}, []int{2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := OptimizeSequence(in, []int{0, 1})
	want := int64(2*(10-4) + 3*(20-4))
	if res.Cost != want || res.Start != 0 || res.DueJob != 0 {
		t.Errorf("got %+v, want cost=%d start=0 dueJob=0", res, want)
	}
}

// TestZeroDueDate covers d = 0 (every job tardy from the origin).
func TestZeroDueDate(t *testing.T) {
	in, err := problem.NewCDD("zero", []int{3, 4}, []int{9, 9}, []int{2, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := OptimizeSequence(in, []int{0, 1})
	if want := int64(2*3 + 5*7); res.Cost != want {
		t.Errorf("cost = %d, want %d", res.Cost, want)
	}
}

// TestUnrestrictedAlwaysDueJob checks Hall–Kubiak–Sethi structure: with an
// unrestricted due date (d ≥ ΣP) and strictly positive α, the optimum has
// some job completing exactly at d.
func TestUnrestrictedAlwaysDueJob(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(7)
		in := randomInstance(rng, n)
		in.D = in.SumP() + int64(rng.Intn(30))
		seq := randomSequence(rng, n)
		res := OptimizeSequence(in, seq)
		if res.DueJob == 0 {
			t.Fatalf("trial %d: unrestricted instance has no job at d (res=%+v)", trial, res)
		}
		s := problem.Schedule{Seq: seq, Start: res.Start}
		if pos := s.DueDatePosition(in); pos != res.DueJob {
			t.Fatalf("trial %d: DueJob=%d but schedule says %d", trial, res.DueJob, pos)
		}
	}
}

func BenchmarkOptimizeSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 1000} {
		in := randomInstance(rng, n)
		seq := randomSequence(rng, n)
		p, alpha, beta := ParamArrays(in)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CostArrays(seq, p, alpha, beta, in.D)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 10:
		return "n10"
	case 100:
		return "n100"
	case 1000:
		return "n1000"
	}
	return "n"
}

package earlywork

import (
	"testing"

	"repro/internal/problem"
	"repro/internal/xrand"
)

func instance(t *testing.T, p []int, machines int, d int64) *problem.Instance {
	t.Helper()
	in, err := problem.NewEarlyWork("ew-test", p, machines, d)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// processingTimes is the job-indexed p column CostArrays consumes.
func processingTimes(in *problem.Instance) []int64 {
	p := make([]int64, in.N())
	for i, j := range in.Jobs {
		p[i] = int64(j.P)
	}
	return p
}

// TestCostClosedForm pins the single-machine late work max(0, ΣP−d)
// against hand-computed values on both sides of the due date.
func TestCostClosedForm(t *testing.T) {
	in := instance(t, []int{6, 5, 2, 4, 4}, 1, 16) // ΣP = 21
	p := processingTimes(in)
	cases := []struct {
		seq  []int
		want int64
	}{
		{[]int{0, 1, 2, 3, 4}, 5}, // 21 − 16
		{[]int{4, 3, 2, 1, 0}, 5}, // order-independent
		{[]int{2}, 0},             // load 2 ≤ 16: all work early
		{[]int{0, 1, 3}, 0},       // load 15 ≤ 16
		{[]int{0, 1, 2, 3}, 1},    // load 17
		{[]int{}, 0},              // idle machine
	}
	for _, tc := range cases {
		if got := CostArrays(tc.seq, p, in.D); got != tc.want {
			t.Errorf("CostArrays(%v) = %d, want %d", tc.seq, got, tc.want)
		}
	}
}

// TestOrderIndependence pins the property the whole genome design leans
// on: a machine's late work depends only on its load, never on the
// order within the segment.
func TestOrderIndependence(t *testing.T) {
	r := xrand.New(7)
	in := instance(t, []int{6, 5, 2, 4, 4, 3, 7, 1}, 1, 9)
	p := processingTimes(in)
	seq := problem.IdentitySequence(in.N())
	want := CostArrays(seq, p, in.D)
	for trial := 0; trial < 50; trial++ {
		for i := len(seq) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			seq[i], seq[j] = seq[j], seq[i]
		}
		if got := CostArrays(seq, p, in.D); got != want {
			t.Fatalf("cost %d for order %v, %d for identity — late work must be order-independent", got, seq, want)
		}
	}
}

// TestEarlyLateComplement pins the transform that lets the minimizing
// solver stack maximize early work: on every machine, early work
// min(load, d) plus late work max(0, load−d) is exactly the load, so
// total early + total late = ΣP whatever the assignment.
func TestEarlyLateComplement(t *testing.T) {
	r := xrand.New(11)
	p := []int64{6, 5, 2, 4, 4, 3, 7}
	var sum int64
	for _, v := range p {
		sum += v
	}
	const d = 8
	for trial := 0; trial < 100; trial++ {
		// Random 3-way assignment.
		loads := make([]int64, 3)
		for j := range p {
			loads[r.Intn(3)] += p[j]
		}
		var early, late int64
		for _, load := range loads {
			if load <= d {
				early += load
			} else {
				early += d
				late += load - d
			}
		}
		if early+late != sum {
			t.Fatalf("early %d + late %d != ΣP %d (loads %v)", early, late, sum, loads)
		}
	}
}

// TestFitnessMatchesCost pins the kernel form: same cost, op count
// proportional to the segment length.
func TestFitnessMatchesCost(t *testing.T) {
	in := instance(t, []int{6, 5, 2, 4}, 1, 7)
	p := processingTimes(in)
	seq := []int{2, 0, 3}
	cost, ops := FitnessArrays(seq, p, in.D)
	if cost != CostArrays(seq, p, in.D) {
		t.Errorf("FitnessArrays cost %d != CostArrays %d", cost, CostArrays(seq, p, in.D))
	}
	if ops != 2*len(seq)+1 {
		t.Errorf("ops = %d, want %d", ops, 2*len(seq)+1)
	}
}

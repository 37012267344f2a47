package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile
// (0 < q < 1): the sorted sample's mean, each value weighted by the mass
// a Beta(q(n+1), (1−q)(n+1)) distribution puts on its rank interval
// ((i−1)/n, i/n]. A single order statistic jumps from run to run when
// the quantile falls near a gap between groups of samples, as the
// workloads' mixes of fast and slow rows make it do; this estimate moves
// smoothly instead. An empty sample yields 0.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lbeta := la + lb - lab
	// Each interval's mass by the midpoint rule; normalising by the total
	// cancels most of the rule's error.
	const steps = 16
	var sum, wsum float64
	for i, x := range s {
		var w float64
		for k := 0; k < steps; k++ {
			u := (float64(i) + (float64(k)+0.5)/steps) / float64(n)
			w += math.Exp((a-1)*math.Log(u) + (b-1)*math.Log1p(-u) - lbeta)
		}
		sum += w * x
		wsum += w
	}
	return sum / wsum
}

// tail summarizes the tail of a latency sample: its value at quantile q,
// the sample count and how many samples lie beyond it. Each workload
// fixes its q, so that a faster program, which takes more samples, keeps
// reporting the same statistic. In the library workloads the sample is
// one median latency per row, so its size is fixed by the workload's
// rows, not by how many rounds the host had time for; the rows fall into
// groups whose latencies differ several times over (n = 100 against
// n = 1000, cpu-serial against cpu-parallel), but their order does not
// change from run to run, so the estimate moves with the rows' speed
// only.
type tail struct {
	q      float64
	value  float64
	n      int
	beyond int
	of     string // what the samples are: "samples", "rows"
}

func tailOf(xs []float64, q float64, of string) tail {
	t := tail{q: q, value: hdQuantile(xs, q), n: len(xs), of: of}
	for _, x := range xs {
		if x > t.value {
			t.beyond++
		}
	}
	return t
}

func (t tail) String() string {
	return fmt.Sprintf("p%.0f of %d %s, %d beyond", t.q*100, t.n, t.of, t.beyond)
}

// tailMetric reports the tail of xs at quantile q as a metric; of says
// what the samples are.
func tailMetric(name, unit string, xs []float64, q float64, of string) metric {
	t := tailOf(xs, q, of)
	return metric{name, unit, t.value, t.String()}
}

// mean is the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint is the trajectory digest: a SHA-256 over the
// (pairing, instance, seed) → cost records of a workload's full-budget
// fixed-seed solves, in the order they were added. Two builds that
// follow the same search trajectories print the same digest.
type fingerprint struct {
	records []string
}

func (f *fingerprint) add(pairing, instance string, seed uint64, cost int64) {
	f.records = append(f.records, fmt.Sprintf("%s|%s|%d|%d", pairing, instance, seed, cost))
}

func (f *fingerprint) String() string {
	h := sha256.New()
	for _, r := range f.records {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("sha256:%s (%d solves)", hex.EncodeToString(h.Sum(nil))[:16], len(f.records))
}

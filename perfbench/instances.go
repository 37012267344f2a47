package main

import (
	"bytes"
	"errors"
	"fmt"

	duedate "repro"
	"repro/internal/exact"
	"repro/internal/heuristic"
	"repro/internal/problem"
	"repro/internal/verify"
	"repro/internal/xrand"
)

// instance is one generated input with its fixed reference cost.
type instance struct {
	in *duedate.Instance
	// opt is the EXACT-DP optimum when the instance is inside the DP's
	// domain (hasOpt); it is then also the reference cost.
	opt    int64
	hasOpt bool
	// ref is the fixed reference cost cost_gap_pct is measured against:
	// the DP optimum where the DP applies, else a construction
	// heuristic's cost.
	ref int64
	// wire is the instance's JSON encoding, the form requests carry.
	wire []byte
}

// label is the row key of the instance: kind and size.
func (i *instance) label() string {
	if m := i.in.MachineCount(); m > 1 {
		return fmt.Sprintf("%v/m=%d/n=%d", i.in.Kind, m, i.in.N())
	}
	return fmt.Sprintf("%v/n=%d", i.in.Kind, i.in.N())
}

// constructMaxN is the largest instance whose reference cost is
// heuristic.Construct's. Construct is the V-shape heuristic followed by
// a local search to a local optimum; that search takes milliseconds at
// n = 100 but seconds at n = 1000 (7.6 s on one UCDDCP instance), which
// set-up would repeat on every run, so larger instances are measured
// against the V-shape alone.
const constructMaxN = 100

// newInstance computes the instance's reference cost and wire form. The
// DP is tried first; an instance outside its domain (no agreeable order,
// a kind without a DP, or past the DP's state budget) gets a
// construction heuristic's cost instead.
func newInstance(in *duedate.Instance) (*instance, error) {
	inst := &instance{in: in}
	r, err := exact.SolveDP(in)
	switch {
	case err == nil:
		inst.opt, inst.hasOpt, inst.ref = r.Cost, true, r.Cost
	case errors.Is(err, exact.ErrInapplicable) || errors.Is(err, exact.ErrTooLarge):
		seq := heuristic.VShape(in)
		if in.N() <= constructMaxN {
			seq, _ = heuristic.Construct(in)
		}
		inst.ref, err = duedate.Cost(in, seq)
		if err != nil {
			return nil, fmt.Errorf("reference cost of %s: %w", in.Name, err)
		}
	default:
		return nil, fmt.Errorf("DP reference of %s: %w", in.Name, err)
	}
	var buf bytes.Buffer
	if err := problem.WriteInstanceJSON(&buf, in); err != nil {
		return nil, fmt.Errorf("encode %s: %w", in.Name, err)
	}
	inst.wire = bytes.TrimSpace(buf.Bytes())
	return inst, nil
}

// OR-library record indices: the CDD and EARLYWORK generators emit one
// instance per restrictive factor h ∈ {0.2, 0.4, 0.6, 0.8} per record.
const (
	cddH04 = 1 // h = 0.4
	ewH02  = 0 // h = 0.2: the smallest due date, so the cheapest exact DP
)

// genCDD and genUCDDCP draw record k of the OR-library-style benchmark
// of size n from the workload seed; genEarlyWork draws record 0.
func genCDD(n, k int, seed uint64) (*duedate.Instance, error) {
	ins, err := duedate.GenerateCDDBenchmark(n, k+1, seed)
	if err != nil {
		return nil, err
	}
	return ins[k*4+cddH04], nil
}

func genUCDDCP(n, k int, seed uint64) (*duedate.Instance, error) {
	ins, err := duedate.GenerateUCDDCPBenchmark(n, k+1, seed)
	if err != nil {
		return nil, err
	}
	return ins[k], nil
}

func genEarlyWork(n, machines int, seed uint64) (*duedate.Instance, error) {
	ins, err := duedate.GenerateEarlyWorkBenchmark(n, machines, 1, seed)
	if err != nil {
		return nil, err
	}
	return ins[ewH02], nil
}

// genAgreeable draws an instance of internal/verify's agreeable-CDD
// family (the EXACT-DP's CDD domain) with exactly n jobs. The family
// draws its size uniformly from [2, n]; successive RNG streams of the
// seed are tried until one has n jobs, so the result is a pure function
// of the seed and trial. Even trials are unrestrictive, odd ones
// restrictive.
func genAgreeable(n, trial int, seed uint64) (*duedate.Instance, error) {
	fam, err := verify.FamilyByName("agreeable-cdd")
	if err != nil {
		return nil, err
	}
	const draws = 100 * 1000
	for stream := uint64(0); stream < draws; stream++ {
		if in := fam.Gen(xrand.NewStream(seed, uint64(trial)<<32|stream), trial, n); in.N() == n {
			return in, nil
		}
	}
	return nil, fmt.Errorf("agreeable-cdd: no instance of %d jobs in %d draws", n, draws)
}

// generator draws one instance.
type generator func() (*duedate.Instance, error)

// paperKinds returns generators for `records` CDD and UCDDCP instances of
// size n: the paper's two problems.
func paperKinds(n, records int, seed uint64) []generator {
	var gens []generator
	for k := 0; k < records; k++ {
		gens = append(gens,
			func() (*duedate.Instance, error) { return genCDD(n, k, seed) },
			func() (*duedate.Instance, error) { return genUCDDCP(n, k, seed) })
	}
	return gens
}

// instances builds the reference-annotated instances from generators, in
// order.
func instances(gens ...generator) ([]*instance, error) {
	out := make([]*instance, 0, len(gens))
	for _, g := range gens {
		in, err := g()
		if err != nil {
			return nil, err
		}
		inst, err := newInstance(in)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// supports reports whether a pairing declares the instance's kind and,
// for parallel-machine instances, machine support.
func supports(p duedate.Pairing, in *duedate.Instance) bool {
	if in.MachineCount() > 1 && !p.Machines {
		return false
	}
	for _, k := range p.Kinds {
		if k == in.Kind {
			return true
		}
	}
	return false
}

// pairingName is the "ALG/engine" label of a pairing.
func pairingName(a duedate.Algorithm, e duedate.Engine) string {
	return a.String() + "/" + e.String()
}

// Command perfbench is the repository's benchmark. It runs one workload
// against the duedate facade, the HTTP service or both, checks every
// answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) by name and unit. The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics; the metrics it carries are the ones BENCHMARK.json
// declares. See README.md for the workloads and every metric.
//
//	bash perfbench/run.sh --workload cpu-ensemble --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named, unit-carrying figure.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// outcome is what one measured run produced.
type outcome struct {
	attempted int
	solves    int
	rounds    int
	wall      time.Duration
	gate      gate
	fp        fingerprint
	layers    *layers
	latency   []float64
	gcFrac    float64
	tailQ     float64 // the workload's tail percentile
	e2e       []metric
	notes     []string
	// invalid, when set, says why the run's figures cannot be trusted
	// (the open-loop generator fell behind its schedule).
	invalid string
}

// session is a workload after set-up, ready to measure.
type session interface {
	run(budget time.Duration, traced bool, tr *tracer) *outcome
	close()
}

// workloads maps the -workload names to their set-up.
var workloads = map[string]func(seed uint64, traced bool) (session, error){
	"cpu-ensemble":   cpuEnsemble.session,
	"gpu-pipeline":   gpuPipeline.session,
	"serve-deadline": setupServe,
}

// setupRuns is how many times set-up runs; setup_s is their median and
// the last one's session is measured.
const setupRuns = 3

// maxProcs caps the benchmark's parallelism so that figures from
// machines with more cores stay comparable.
const maxProcs = 2

func main() {
	name := flag.String("workload", "", "workload: cpu-ensemble, gpu-pipeline, serve-deadline, or all three in turn")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = []string{"cpu-ensemble", "gpu-pipeline", "serve-deadline"}
	}
	exit := 0
	for _, n := range names {
		code, err := run(n, *seed, *seconds, *traceFlag == 1, *spansDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = 2
		}
		exit = max(exit, code)
	}
	os.Exit(exit)
}

// specPath is the benchmark definition, read from the repository root the
// benchmark runs in.
const specPath = "BENCHMARK.json"

func run(name string, seed uint64, seconds float64, traced bool, spansDir string) (int, error) {
	setupFn, ok := workloads[name]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return 0, fmt.Errorf("-seconds must be positive")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	var sess session
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if sess != nil {
			sess.close()
		}
		t := time.Now()
		sess, err = setupFn(seed, traced)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	tr := newTracer()
	out := sess.run(time.Duration(seconds*float64(time.Second)), traced, tr)
	sess.close()

	setup := metric{"setup_s", "s", quantile(setups, 0.5), fmt.Sprintf("median of %d set-ups", setupRuns)}
	e2e := append([]metric{setup}, out.e2e...)
	fmt.Printf("workload %s seed %d trace %t: %d operations, %d solves, %d rounds in %.3f s\n",
		name, seed, traced, out.attempted, out.solves, out.rounds, out.wall.Seconds())
	for _, n := range out.notes {
		fmt.Println(n)
	}
	printMetrics("e2e", e2e)
	fmt.Printf("fingerprint %s %s\n", name, out.fp.String())
	var layer []metric
	if traced {
		layer = out.layers.metrics(out.gcFrac, hdQuantile(out.latency, 0.5), out.tailQ)
		printMetrics("layer", layer)
		for _, l := range out.layers.table() {
			fmt.Println(l)
		}
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return 0, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	}
	for _, v := range out.gate.first {
		fmt.Println("violation", v)
	}
	if out.invalid != "" {
		return 0, fmt.Errorf("run invalid: %s", out.invalid)
	}

	declared, reported := spec.EndToEnd, e2e
	if traced {
		declared, reported = spec.PerLayer, layer
	}
	metrics, err := selectMetrics(declared, reported)
	if err != nil {
		return 0, err
	}
	failed := out.gate.violations
	res := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{failed == 0, out.attempted, failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(b))
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%s %-28s %16.6f %-6s %s\n", kind, m.name, m.value, m.unit, m.note)
	}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("benchmark definition %s declares no metrics", path)
	}
	return &s, nil
}

// selectMetrics renders exactly the declared metrics from the reported
// ones, checking that every declared metric was measured in its unit.
func selectMetrics(declared []specMetric, reported []metric) (map[string]json.RawMessage, error) {
	byName := map[string]metric{}
	for _, m := range reported {
		byName[m.name] = m
	}
	out := map[string]json.RawMessage{}
	var missing []string
	for _, d := range declared {
		m, ok := byName[d.Name]
		if !ok || m.unit != d.Unit {
			missing = append(missing, d.Name)
			continue
		}
		b, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, m.unit})
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", d.Name, err)
		}
		out[d.Name] = b
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, errors.New(fmt.Sprint("declared metrics not measured in their unit: ", missing))
	}
	return out, nil
}

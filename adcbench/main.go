// Command adcbench is the repository benchmark: four seeded workloads
// that each load a different layer of the miner and the server, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced run. See README.md for the workloads, the metrics and
// how to run it.
//
// Usage (from the repository root):
//
//	bash adcbench/run.sh --workload mine-enum --seed 1 --seconds 20 --trace 0
//
// Progress goes to standard error; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics; every workload reports all
// of them (see README.md for what each means per workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mine_s", "s"},
	{"validate_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the traced run's metrics. A workload reports 0 for a
// layer it never calls: that layer did no work.
var perLayer = []struct{ name, unit string }{
	{"dataset.ingest_ms", "ms"},
	{"sample.draw_ms", "ms"},
	{"predicate.build_ms", "ms"},
	{"predicate.size", "count"},
	{"pli.warm_ms", "ms"},
	{"pli.columns", "count"},
	{"pli.index_hit_rate", "ratio"},
	{"evidence.build_ms", "ms"},
	{"evidence.distinct_sets", "count"},
	{"evidence.pairs", "count"},
	{"evidence.mem_mb", "MiB"},
	{"evidence.delta_builds", "count"},
	{"evidence.delta_fallbacks", "count"},
	{"evidence.delta_pairs", "count"},
	{"hitset.enum_ms", "ms"},
	{"hitset.calls", "count"},
	{"hitset.outputs", "count"},
	{"hitset.us_per_call", "us"},
	{"hitset.outputs_per_call", "ratio"},
	{"approx.loss_evals", "count"},
	{"approx.evals_per_call", "ratio"},
	{"violation.cold_ms", "ms"},
	{"violation.warm_ms", "ms"},
	{"violation.examined_pairs", "count"},
	{"violation.violations", "count"},
	{"violation.plan_hit_rate", "ratio"},
	{"server.validate_handler_ms", "ms"},
	{"server.append_handler_ms", "ms"},
	{"server.validate_wait_ms", "ms"},
	{"server.jobs_active_max", "count"},
	{"server.append_p50_ms", "ms"},
	{"server.append_p90_ms", "ms"},
	{"storefs.syncs", "count"},
	{"storefs.sync_ms", "ms"},
	{"storefs.bytes_written", "bytes"},
	{"storefs.write_amp", "ratio"},
	{"colstore.snapshots", "count"},
	{"client.late_ms", "ms"},
	{"trace.mine_s", "s"},
	{"trace.validate_p50_ms", "ms"},
	{"trace.validate_p90_ms", "ms"},
}

// run carries one invocation's settings and collects its outcome. Its
// methods are safe for concurrent use.
type run struct {
	seed   int64
	window time.Duration
	trace  bool

	mu       sync.Mutex
	values   map[string]float64
	attempts int
	failures int
}

// attempt counts one operation; an output check counts as one too.
func (r *run) attempt() {
	r.mu.Lock()
	r.attempts++
	r.mu.Unlock()
}

// fail records that the operation last counted failed.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures++
	r.mu.Unlock()
	logf("FAIL: "+format, args...)
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adcbench: "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"mine-enum":   func(r *run) error { return runMine(r, mineEnum) },
	"mine-sample": func(r *run) error { return runMine(r, mineSample) },
	"mine-tuple":  func(r *run) error { return runMine(r, mineTuple) },
	"serve-mixed": runServe,
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r := &run{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		values: make(map[string]float64),
	}
	if err := w(r); err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	r.set("peak_rss_mb", peakRSSMiB())
	if !r.trace {
		for _, m := range endToEnd {
			if r.values[m.name] <= 0 {
				r.fail("end-to-end metric %s was not measured", m.name)
			}
		}
	}

	names := endToEnd
	if r.trace {
		names = perLayer
	}
	out := result{
		Correct:   r.failures == 0,
		Attempted: r.attempts,
		Failed:    r.failures,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, m := range names {
		out.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

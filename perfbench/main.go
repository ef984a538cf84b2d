// Command perfbench is oldelephant's standing benchmark. Each workload builds
// its database, drives it for a fixed window from this one process, checks
// every answer against a reference computed without the engine, and prints
// its metrics by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"round_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer split (README.md says how each layer is timed). Run it
// through run.py, which builds this module:
//
//	python3 perfbench/run.py --workload serve-seek --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the engine sees; every workload reports
// all of them. A round is the workload's repeated unit of work: one Figure 2
// sweep for the paper workloads, one seek for serve-seek, one
// insert-and-read cycle for serve-rw.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},        // median wall time to build the database
	{"setup_heap_mb", "MB"}, // median live heap after set-up
	{"stored_pages", "count"},
	{"ops_per_s", "1/s"}, // statements completed per second of the window
	{"round_ms", "ms"},   // Σ over a round's statements of each one's median latency
}

// perLayerMetrics split the end-to-end numbers by module. A layer the
// workload does not exercise reports 0. "Per round" values are sums of
// per-position medians, like round_ms.
var perLayerMetrics = []metricDef{
	{"tpch.load_s", "s"},
	{"sql.parse_us", "us"},
	{"sql.normalize_us", "us"},
	{"plan.plan_us", "us"},
	{"engine.exec_us", "us"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.plan_cache_invalidations_per_commit", "1/commit"},
	{"matview.rewrite_ms", "ms"},
	{"rewrite.rewrite_ms", "ms"},
	{"exec.scan_ms", "ms"},
	{"exec.join_ms", "ms"},
	{"exec.agg_ms", "ms"},
	{"exec.filter_project_ms", "ms"},
	{"exec.other_ms", "ms"},
	{"exec.rows_examined_per_row", "ratio"},
	{"colstore.exec_ms", "ms"},
	{"storage.seq_reads", "count"},
	{"storage.rand_reads", "count"},
	{"storage.page_writes_per_commit", "1/commit"},
	{"wal.fsyncs_per_commit", "1/commit"},
	{"wal.bytes_per_commit", "B"},
	{"wal.commit_us", "us"},
	{"wal.log_mb_end", "MB"},
	{"server.queue_us", "us"},
	{"server.session_us", "us"},
	{"wire.roundtrip_overhead_us", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.whole_ms", "ms"},
	{"trace.parts_ms", "ms"},
	{"trace.parts_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// config is what every workload receives.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	ref    *reference
}

// report is what a workload hands back.
type report struct {
	attempted, failed int64
	mismatches        int64
	e2e, layers       map[string]float64
}

// newReport starts every per-layer metric at 0, the value a layer reports on
// a workload that does not exercise it.
func newReport() *report {
	r := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	for _, d := range perLayerMetrics {
		r.layers[d.name] = 0
	}
	return r
}

// maxMismatchLines bounds how many wrong answers are printed in full.
const maxMismatchLines = 20

// mismatch records a wrong answer from an operation that did not fail.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches++
	if r.mismatches <= maxMismatchLines {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
	}
}

// failure records an operation that returned an error.
func (r *report) failure(err error) {
	r.failed++
	if r.failed <= maxMismatchLines {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

type workloadFunc func(cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-row":    paperWorkload(strategyRow),
	"paper-rowmv":  paperWorkload(strategyRowMV),
	"paper-rowcol": paperWorkload(strategyRowCol),
	"paper-colopt": paperWorkload(strategyColOpt),
	"serve-seek":   serveSeek,
	"serve-rw":     serveRW,
}

// setupRuns is how many times a run builds its database; set-up metrics are
// the median over these builds.
const setupRuns = 3

// buildMedian builds a workload's environment setupRuns times, releasing all
// but the last build, and returns the last one with the median build time
// and median live heap.
func buildMedian[T any](build func() (T, error), release func(T)) (env T, setupS, heapMB float64, err error) {
	var secs, heaps []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(env)
		}
		start := time.Now()
		env, err = build()
		if err != nil {
			return env, 0, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		heaps = append(heaps, liveHeapMB())
	}
	return env, median(secs), median(heaps), nil
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (key choice, insert values, statement order)")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {%s}, -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reference: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, ref: ref}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs, values := endToEndMetrics, rep.e2e
	if cfg.trace {
		defs, values = perLayerMetrics, rep.layers
	}
	if err := printResult(rep, defs, values); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printResult writes the human-readable metric lines and the final JSON line.
// Every metric of defs must be present: a workload that forgets one is a bug
// in the benchmark, not a zero.
func printResult(rep *report, defs []metricDef, values map[string]float64) error {
	out := resultOut{
		Correct:   rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("# %-44s %14.6g %s\n", d.name, v, d.unit)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

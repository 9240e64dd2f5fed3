// Command benchmark is the repository's end-to-end benchmark. It runs one
// closed-loop workload against the library in this checkout, checks
// every operation's output, and prints one JSON object as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (see endToEnd),
// measured with telemetry off. With --trace 1 the run measures the
// workload twice, untraced and traced, writes the benchmark's own spans
// and the program's hop trace under .bench_build/trace, and reports the
// per-layer set (see layers.go). Run it from the repository root:
//
//	bash benchmark/run.sh --workload rounds-tcp --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"sort"
	"strings"
	"time"

	"marsit/internal/obs"
)

// gomaxprocs is fixed so runs on machines of different sizes schedule
// the same way. One P keeps each operation on one CPU at a time: on the
// shared 2-CPU machine the bounds were set on, runs at GOMAXPROCS=2
// spread two to three times wider, because time stolen from either CPU
// stalls the ranks waiting on it.
const gomaxprocs = 1

// workers is M, the number of ranks in every workload's fabric.
const workers = 4

// runLimit ends a run that has not finished by then with a failure
// instead of letting it hang.
const runLimit = 170 * time.Second

// traceDir is where traced runs write their artifacts, relative to the
// repository root.
const traceDir = ".bench_build/trace"

// runCfg is what a workload gets from the command line.
type runCfg struct {
	seed   uint64
	window time.Duration // how long the closed loop keeps starting operations
	spans  *spans        // nil when untraced
}

// more reports whether the closed loop started at start may start
// another operation.
func (rc runCfg) more(start time.Time) bool { return time.Since(start) < rc.window }

// outcome is one workload pass: its set-up times, the latency of every
// operation that passed verification, and what failed.
type outcome struct {
	setups    []float64 // seconds per set-up repetition
	lat       []float64 // milliseconds per verified timed operation
	attempted int
	failed    int
	failures  []string // the first few failures, for the log
	aborted   bool     // the closed loop stopped early; see fail
	// busy is the wall time timed operations were in flight: their summed
	// latencies for one client, the closed loop's duration for several.
	// Verification between operations is excluded.
	busy time.Duration

	// accuracy is the share of an operation's output that agrees with
	// its exact reference; wireMB and simMS are the cost-model megabytes
	// and simulated milliseconds of one operation. All three are exact
	// for a given seed.
	accuracy, wireMB, simMS float64
}

// failLimit stops a closed loop whose operations keep failing: a dead
// fabric fails every later operation at once, and the loop would spin.
const failLimit = 16

// fail records a failed operation. A missed deadline stops the loop at
// once: the operation may still hold the fabric.
func (o *outcome) fail(format string, args ...any) {
	err := fmt.Errorf(format, args...)
	o.failed++
	if errors.Is(err, errDeadline) || o.failed >= failLimit {
		o.aborted = true
	}
	if len(o.failures) < 8 {
		o.failures = append(o.failures, err.Error())
	}
}

type workload struct {
	name string
	run  func(rc runCfg) *outcome
}

var workloads = []workload{
	{"train-marsit", runTrain},
	{"rounds-tcp", runRounds},
	{"jobs-tcp", runJobs},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of an untraced pass. Every
// workload reports all of them; "op" is the workload's operation (one
// train.Run, one round of each collective, one step of two daemon jobs).
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":        {median(o.setups), "s"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
		"op_ms_p50":      {quantile(o.lat, 0.5), "ms"},
		"op_ms_p90":      {quantile(o.lat, 0.9), "ms"},
		"ops_per_s":      {ratio(float64(len(o.lat)), o.busy.Seconds()), "1/s"},
		"accuracy":       {o.accuracy, "ratio"},
		"wire_mb_per_op": {o.wireMB, "MB"},
		"sim_ms_per_op":  {o.simMS, "sim_ms"},
	}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are derived from")
	seconds := flag.Int("seconds", 20, "how long the closed loop runs, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {%s} --seed N --seconds S --trace {0,1}\n", workloadNames())
		return 2
	}
	gort.GOMAXPROCS(gomaxprocs)
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v\n", w.name, runLimit)
		os.Exit(3)
	})
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *trace, gort.NumCPU(), gort.GOMAXPROCS(0), gort.Version())

	rc := runCfg{seed: *seed, window: time.Duration(*seconds) * time.Second}
	var res result
	if *trace == 0 {
		o := w.run(rc)
		logOutcome(w.name, o)
		res = result{Attempted: o.attempted, Failed: o.failed, Metrics: endToEnd(o)}
		res.Correct = o.failed == 0 && len(o.lat) > 0
	} else {
		var err error
		if res, err = traced(w, rc); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// traced measures the workload untraced and traced, writes the spans
// and the hop trace, and runs the layer probes.
func traced(w *workload, rc runCfg) (result, error) {
	base := w.run(rc)
	logOutcome(w.name+" (untraced)", base)
	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	if base.aborted {
		return res, nil
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(workers, 1<<15)
	reg.AttachTracer(tracer)
	reg.EnsureCalib(workers)
	restore := obs.SetActive(reg)
	rc.spans = newSpans()
	tr := w.run(rc)
	restore()
	logOutcome(w.name+" (traced)", tr)
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	if tr.aborted {
		return res, nil
	}

	dir := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, rc.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	if err := rc.spans.writeFile(filepath.Join(dir, "spans.json")); err != nil {
		return res, err
	}
	f, err := os.Create(filepath.Join(dir, "hops.json"))
	if err != nil {
		return res, err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	rc.spans.printSummary(os.Stderr)
	fmt.Fprintf(os.Stderr, "benchmark: spans and hop trace written to %s\n", dir)

	var dropped int64
	for r := 0; r < tracer.Ranks(); r++ {
		dropped += tracer.Dropped(r)
	}
	b, t := median(base.lat), median(tr.lat)
	res.Metrics["obs.trace_overhead_frac"] = metric{ratio(t-b, b), "ratio"}
	res.Metrics["obs.trace_dropped"] = metric{float64(dropped + rc.spans.dropped), "count"}

	lp := runLayers(rc.seed)
	for k, v := range lp.metrics {
		res.Metrics[k] = v
	}
	res.Attempted += lp.attempted
	res.Failed += lp.failed
	for _, f := range lp.failures {
		fmt.Fprintf(os.Stderr, "benchmark: layer probe failed: %s\n", f)
	}
	res.Correct = res.Failed == 0 && len(base.lat) > 0 && len(tr.lat) > 0
	return res, nil
}

func logOutcome(name string, o *outcome) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d ops timed, %.2fs busy, %d attempted, %d failed\n",
		name, len(o.lat), o.busy.Seconds(), o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: failed: %s\n", name, f)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Command perfbench is the repository benchmark. It generates one
// workload from a seed, drives the merging pass and the merge daemon
// through their public entry points, checks every output against an
// independent oracle, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload f3m-8k --seed 1 --seconds 35 --trace 0
//
// Every workload is a generated corpus that both users of the system
// see: the one-shot compiler pass (core.Run over the whole module) and
// the merge daemon (serve.Server behind its HTTP handler, fed the
// corpus cut into modules by ir.SplitModule). The workloads differ in
// corpus shape, pass configuration and where the run spends its time;
// see the workloads table below for why each was chosen, and METRICS.md
// for every metric, the layer-to-metric predictions and the held-out
// seed. The program under test receives only the generated inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"f3m/internal/core"
	"f3m/internal/irgen"
)

// workload is one benchmark input: a corpus recipe, the one-shot pass
// configuration and the daemon traffic profile.
type workload struct {
	name string

	// spec and permuted shape the generated corpus (the cmd/f3m -gen
	// shape, optionally with block-permuted twins). Drivers are always
	// added: they are the interpreter oracle's entry points.
	spec     irgen.SuiteSpec
	permuted float64

	// strategy and check configure the one-shot pass.
	strategy core.Strategy
	check    core.CheckMode

	// passShare is the share of the run's seconds given to one-shot
	// passes; the daemon session gets the rest. At least minPasses
	// passes run whatever the budget. The passes cycle through corpora
	// distinct corpora generated from the seed; the daemon serves the
	// first.
	passShare float64
	minPasses int
	corpora   int

	// parts is the number of modules the daemon corpus is cut into;
	// coldMerge merges once before the remerges rounds of replacing a
	// module and merging again; oneShot checks the daemon's report_key
	// against one-shot core.Run over the same modules.
	parts     int
	coldMerge bool
	remerges  int
	oneShot   bool

	// load is the daemon's open-loop query ladder.
	load ladder
}

// ladder is an open-loop query schedule of stored-probe queries, one
// step per rate in ascending order, with a writer that removes and
// resubmits one module every writePeriod beside the reads. Untraced
// runs hold only the named step, whose p50 is an end-to-end metric;
// traced runs climb the whole ladder for query_max_qps.
type ladder struct {
	rates       []float64 // q/s, ascending
	stepSec     float64
	namedRate   float64
	namedSec    float64
	limitMs     float64       // p99 latency limit, timed from when each request was due
	lateLimitMs float64       // generator lateness p99 above which a step is invalid
	writePeriod time.Duration // 0: no writer
}

// The ladders start at the named step and climb in steps fine enough
// near the knees (about 1000-3000 q/s on the reference host) that a
// run landing one step higher or lower moves query_max_qps little. The
// 200 ms limit sits above the stalls a resubmission causes (one of the
// two connections is busy for about its submit time) and below the
// jump once the daemon saturates.
var serveLadder = ladder{
	rates:       []float64{500, 2000, 2250, 2500, 2750, 3000, 3250, 3500, 4000},
	stepSec:     2,
	namedRate:   500,
	namedSec:    8,
	limitMs:     200,
	lateLimitMs: 25,
	writePeriod: 2 * time.Second,
}

// pipelineLadder is the read-only schedule of the pass-heavy
// workloads: their daemon session is there so every workload reports
// every metric, and a writer would only add its stalls to their
// query figures.
var pipelineLadder = ladder{
	rates:       []float64{500, 1000, 1250, 1500, 1750, 2000, 2250, 2500, 2750, 3000, 3500, 4000},
	stepSec:     1,
	namedRate:   500,
	namedSec:    4,
	limitMs:     200,
	lateLimitMs: 25,
}

var workloads = []workload{
	{
		// LSH ranking and codegen dominate; checks are off, so this is
		// the bypass for commit-checking changes. Ranking grows
		// super-linearly from 4k to 8k functions, so bucket crowding
		// shows. The two passes merge two corpora, so the quality
		// metrics rest on about 2400 merges.
		name:      "f3m-8k",
		spec:      irgen.SuiteSpec{Name: "f3m-8k", Funcs: 8000, AvgInstrs: 25, CloneFraction: 0.4},
		strategy:  core.F3MStatic,
		check:     core.CheckOff,
		passShare: 0.5,
		minPasses: 2,
		corpora:   2,
		parts:     2,
		remerges:  1,
		load:      pipelineLadder,
	},
	{
		// Per-commit audit, call-graph rebuilds and translation
		// validation dominate; canonicalization and the CFG aligner run
		// only here. Ranking is a small share, so this is the bypass
		// for ranking changes.
		name:      "cfg-validate-4k",
		spec:      irgen.SuiteSpec{Name: "cfg-validate-4k", Funcs: 4000, AvgInstrs: 25, CloneFraction: 0.4},
		permuted:  0.3,
		strategy:  core.F3MCFG,
		check:     core.CheckValidate,
		passShare: 0.7,
		minPasses: 2,
		corpora:   2,
		parts:     2,
		remerges:  1,
		load:      pipelineLadder,
	},
	{
		// The daemon's request path: IR parse/print/verify, stable
		// fingerprinting, the sharded store's locks, HTTP/JSON and the
		// persistent-cache re-merge, with near-duplicates spanning
		// modules. Its passes cycle through four small corpora so the
		// merge-quality metrics rest on as many merges as the 8k
		// workload's.
		name:      "serve-mix",
		spec:      irgen.SuiteSpec{Name: "serve-mix", Funcs: 3000, AvgInstrs: 25, CloneFraction: 0.4},
		strategy:  core.F3MStatic,
		check:     core.CheckOff,
		passShare: 0.2,
		minPasses: 4,
		corpora:   4,
		parts:     6,
		coldMerge: true,
		remerges:  2,
		oneShot:   true,
		load:      serveLadder,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries the state of one benchmark invocation: the oracle
// verdict, the operation tally and the benchmark's own trace.
type run struct {
	w        workload
	seed     int64
	deadline time.Time
	traced   bool
	tr       *tracer

	attempted, failed atomic.Int64
	oracleFailures    int
}

// attempt records one operation and whether it failed. Safe for
// concurrent use (the load goroutines call it).
func (r *run) attempt(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

// oracle records a correctness-oracle check; a failed check makes the
// run incorrect (the benchmark then exits nonzero).
func (r *run) oracle(ok bool, format string, args ...any) {
	if !ok {
		r.oracleFailures++
		fmt.Fprintf(os.Stderr, "perfbench: oracle failure: "+format+"\n", args...)
	}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload generation seed")
	seconds := flag.Int("seconds", 30, "measurement time budget")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the span dump")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	r := &run{
		w:        w,
		seed:     *seed,
		deadline: time.Now().Add(time.Duration(*seconds) * time.Second),
		traced:   *trace == 1,
		tr:       newTracer(fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, *seed, *trace, time.Now().UnixNano())),
	}
	metrics, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.traced {
		r.tr.writeTable(os.Stdout)
		path := filepath.Join(*outDir, "traces", r.tr.runID+".json")
		if err := r.tr.dump(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	printMetrics(metrics)
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number: %v\n", name, m.Value)
			os.Exit(1)
		}
	}

	res := result{
		Correct:   r.oracleFailures == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14s %s\n", n, strconv.FormatFloat(ms[n].Value, 'g', 8, 64), ms[n].Unit)
	}
}

// execute runs the workload: input set-up, one-shot passes, then the
// daemon session, and assembles the metrics for the requested mode.
func (r *run) execute() (map[string]metric, error) {
	root := r.tr.start("run", nil)
	defer root.end()
	fmt.Printf("workload %s seed %d trace %v gomaxprocs %d\n", r.w.name, r.seed, r.traced, runtime.GOMAXPROCS(0))

	in, err := r.setup(root)
	if err != nil {
		return nil, err
	}
	passBudget := time.Duration(float64(time.Until(r.deadline)) * r.w.passShare)
	ps, err := r.passes(root, in, passBudget)
	if err != nil {
		return nil, err
	}
	ds, err := r.daemon(root, in)
	if err != nil {
		return nil, err
	}
	root.end()
	if r.traced {
		return r.layerMetrics(in, ps, ds), nil
	}
	return r.endToEndMetrics(in, ps, ds), nil
}

package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"f3m/internal/align"
	"f3m/internal/analysis"
	"f3m/internal/core"
	"f3m/internal/interp"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
	"f3m/internal/serve"
)

// corpusSeedStride separates the seeds of a workload's corpora.
const corpusSeedStride = 1_000_003

// input is the workload's generated corpus, its oracle reference and
// the daemon's modules cut from it.
type input struct {
	corpus corpus
	parts  []part

	setupTimes []time.Duration
}

type part struct{ name, src string }

// corpus is one generated module recipe and its reference behaviour.
type corpus struct {
	drivers []string

	// ref holds each driver's interpreted result on the unmerged
	// module, in driver order; refSteps is the interpreter's dynamic
	// instruction count over all of them.
	ref      []driverResult
	refSteps int64
}

// driverResult is one driver's interpreted outcome. The value is kept
// rendered, so results compare across modules (types are interned per
// module).
type driverResult struct {
	val string
	err error
}

// corpusConfig is the generator config of the workload's k-th corpus.
func (r *run) corpusConfig(k int) irgen.Config {
	cfg := r.w.spec.Config(r.seed + int64(k)*corpusSeedStride)
	cfg.PermutedFraction = r.w.permuted
	return cfg
}

// generate builds one copy of a corpus module and times it as a
// set-up sample.
func (r *run) generate(in *input, k int, parent *span) (*ir.Module, []string) {
	sp := parent.child("setup.generate")
	t := time.Now()
	m := irgen.Generate(r.corpusConfig(k)).Module
	drivers := irgen.AddDrivers(m)
	in.setupTimes = append(in.setupTimes, time.Since(t))
	sp.end()
	return m, drivers
}

// reference interprets every driver of an unmerged module.
func reference(m *ir.Module, drivers []string, parent *span) *corpus {
	sp := parent.child("oracle.reference")
	defer sp.end()
	ref, steps := interpretDrivers(m, drivers)
	return &corpus{drivers: drivers, ref: ref, refSteps: steps}
}

// setup builds the daemon's corpus, interprets its drivers as the
// reference, and cuts it into the daemon's modules.
func (r *run) setup(root *span) (*input, error) {
	sp := root.child("setup")
	defer sp.end()
	in := &input{}
	m, drivers := r.generate(in, 0, sp)
	in.corpus = *reference(m, drivers, sp)

	split := sp.child("ir.split")
	mods, err := ir.SplitModule(m, r.w.parts)
	split.end()
	if err != nil {
		return nil, err
	}
	for i, pm := range mods {
		in.parts = append(in.parts, part{name: fmt.Sprintf("mod%02d", i), src: ir.ModuleString(pm)})
	}
	return in, nil
}

// interpretDrivers runs every driver, in order, on one machine (global
// state carries over between drivers exactly as in the reference run).
func interpretDrivers(m *ir.Module, drivers []string) ([]driverResult, int64) {
	mach := interp.NewMachine(m)
	mach.StepLimit = 1 << 62
	out := make([]driverResult, len(drivers))
	for i, d := range drivers {
		f := m.Func(d)
		if f == nil {
			out[i].err = fmt.Errorf("driver %s missing", d)
			continue
		}
		v, err := mach.Call(f)
		out[i] = driverResult{v.String(), err}
	}
	return out, mach.Steps
}

// checkDrivers interprets the drivers on a merged module and compares
// each result with the reference: the interpreter, never the merger,
// decides what is correct. Every driver is one attempted operation.
// It returns the dynamic instruction count.
func (r *run) checkDrivers(c *corpus, m *ir.Module, what string, parent *span) int64 {
	sp := parent.child("oracle.drivers")
	defer sp.end()
	got, steps := interpretDrivers(m, c.drivers)
	bad, first := 0, ""
	for i, g := range got {
		want := c.ref[i]
		ok := (g.err == nil) == (want.err == nil) && (g.err != nil || g.val == want.val)
		r.attempt(ok)
		if !ok {
			if bad == 0 {
				first = fmt.Sprintf("%s: got %v (err %v), want %v (err %v)", c.drivers[i], g.val, g.err, want.val, want.err)
			}
			bad++
		}
	}
	r.oracle(bad == 0, "%s: %d drivers differ from the unmerged module, first %s", what, bad, first)
	return steps
}

// passStats collects the one-shot passes of a run.
type passStats struct {
	walls []time.Duration
	rss   []float64 // peak resident MB during each pass

	// Pooled over the distinct corpora passed: size-model cost and
	// driver steps before and after merging.
	sizeBefore, sizeAfter   int64
	stepsBefore, stepsAfter int64

	// Traced runs: the traced pass and its untraced twin.
	untracedWall, tracedWall time.Duration
	rep                      *core.Report
	mx                       *obs.Metrics
	cache                    align.CacheStats
	allocBytes, mallocs      uint64
	gcCycles                 uint32
}

// passes runs core.Run over fresh modules until the budget is spent
// (at least minPasses times). Pass i merges the workload's corpus
// i mod corpora; a corpus passed again must reproduce its first
// report exactly. Traced runs make exactly two passes over corpus 0:
// one untraced, then one with the pipeline's tracer and metrics
// registry attached.
func (r *run) passes(root *span, in *input, budget time.Duration) (*passStats, error) {
	sp := root.child("passes")
	defer sp.end()
	ps := &passStats{}
	corpora := make([]*corpus, r.w.corpora)
	canons := make([]string, r.w.corpora)
	corpora[0] = &in.corpus
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if r.traced && i == 2 {
			break
		}
		if !r.traced && i >= r.w.minPasses && time.Since(start)+last > budget {
			break
		}
		iterStart := time.Now()
		k := i % r.w.corpora
		if r.traced {
			k = 0
		}
		m, drivers := r.generate(in, k, sp)
		if corpora[k] == nil {
			corpora[k] = reference(m, drivers, sp)
		}

		cfg := core.DefaultConfig(r.w.strategy)
		cfg.Check = r.w.check
		cache := align.NewCache(0)
		cfg.MergeOpts.AlignCache = cache
		tracedPass := r.traced && i == 1
		if tracedPass {
			cfg.Tracer = obs.NewTracer()
			cfg.Metrics = obs.NewMetrics()
		}
		// Every pass starts from a collected heap returned to the OS, so
		// its peak resident size is its own.
		debug.FreeOSMemory()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		rss := startRSSSampler()

		call := sp.child("core.Run")
		call.attr("corpus", k)
		call.attr("traced", tracedPass)
		t := time.Now()
		rep, err := core.Run(m, cfg)
		wall := time.Since(t)
		call.end()
		peak := rss.stop()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)

		v := sp.child("ir.VerifyModule")
		verr := ir.VerifyModule(m)
		v.end()
		r.oracle(verr == nil, "pass %d: module invalid after merging: %v", i, verr)

		// Each commit is an operation; a commit the checkers refute
		// (an error diagnostic) is a failed one.
		nerr := rep.Diagnostics.Count(analysis.Error)
		for n := 0; n < rep.Merges; n++ {
			r.attempt(n >= nerr)
		}
		steps := r.checkDrivers(corpora[k], m, fmt.Sprintf("pass %d", i), sp)

		canon := serve.CanonicalReport(rep)
		if canons[k] == "" {
			canons[k] = canon
			ps.sizeBefore += int64(rep.SizeBefore)
			ps.sizeAfter += int64(rep.SizeAfter)
			ps.stepsBefore += corpora[k].refSteps
			ps.stepsAfter += steps
		} else {
			r.oracle(canon == canons[k], "pass %d: report differs from the first pass over corpus %d", i, k)
		}

		switch {
		case tracedPass:
			ps.tracedWall = wall
			ps.rep = rep
			ps.mx = cfg.Metrics
			ps.cache = cache.Stats()
			ps.allocBytes = after.TotalAlloc - before.TotalAlloc
			ps.mallocs = after.Mallocs - before.Mallocs
			ps.gcCycles = after.NumGC - before.NumGC
		case r.traced:
			ps.untracedWall = wall
		default:
			ps.walls = append(ps.walls, wall)
			ps.rss = append(ps.rss, peak)
		}
		fmt.Printf("pass %d (corpus %d): %.3fs, %d funcs, %d attempts, %d merges, %d check errors, peak rss %.0f MB\n",
			i, k, wall.Seconds(), rep.NumFuncs, rep.Attempts, rep.Merges, nerr, peak)
		last = time.Since(iterStart)
	}
	return ps, nil
}

// rssSampler tracks the largest resident set size seen while it runs.
type rssSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  float64
}

// rssPeriod is the resident-size sampling period.
const rssPeriod = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), peak: residentMB()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				s.peak = max(s.peak, residentMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	s.done.Wait()
	return max(s.peak, residentMB())
}

// residentMB is the process's current resident set size, from
// /proc/self/statm, or the Go runtime's obtained memory where /proc
// is unavailable.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

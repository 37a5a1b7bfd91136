package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"f3m/internal/align"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
)

// withParallelism raises GOMAXPROCS for the duration of a test so the
// parallel stages' goroutines really interleave on hosts with few CPUs
// — the determinism tests must exercise concurrent scheduling wherever
// they run.
func withParallelism(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// reportKey renders every schedule-independent field of a report into
// one comparable string: the pair log (without wall-clock durations),
// the aggregate counters, the effective parameters, the LSH statistics
// and the canonically rendered diagnostics. Two runs that differ only
// in scheduling must produce identical keys.
func reportKey(t *testing.T, rep *Report) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy=%v funcs=%d attempts=%d merges=%d size=%d->%d\n",
		rep.Strategy, rep.NumFuncs, rep.Attempts, rep.Merges, rep.SizeBefore, rep.SizeAfter)
	fmt.Fprintf(&sb, "t=%v b=%d k=%d lsh=%+v\n", rep.Threshold, rep.Bands, rep.K, rep.LSHStats)
	for _, p := range rep.Pairs {
		fmt.Fprintf(&sb, "pair %s + %s sim=%v attempted=%v profitable=%v saving=%d\n",
			p.A, p.B, p.Similarity, p.Attempted, p.Profitable, p.Saving)
	}
	if err := rep.Diagnostics.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// metricsJSON serializes the deterministic metrics export.
func metricsJSON(t *testing.T, mx *obs.Metrics) string {
	t.Helper()
	var sb strings.Builder
	if err := mx.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// detGenConfigs returns the corpora the determinism tests sweep: the
// default population plus a long-straightline variant whose blocks
// clear the banded aligner's minimum length, so the byte-identical
// contract is proven through the fast path as well as the full DP.
func detGenConfigs(seed int64) []irgen.Config {
	long := irgen.DefaultConfig(seed)
	long.Families = 8
	long.Singletons = 10
	long.BlocksMin, long.BlocksMax = 2, 4
	long.InstrsMin, long.InstrsMax = 30, 60
	long.MutationMax = 0.2
	long.Callers = 4
	return []irgen.Config{irgen.DefaultConfig(seed), long}
}

// runDetRun executes one pipeline run on a freshly generated module
// with strict checks and a metrics registry.
func runDetRun(t *testing.T, strat Strategy, gen irgen.Config, workers int) (*Report, string) {
	t.Helper()
	m := irgen.Generate(gen).Module
	cfg := DefaultConfig(strat)
	cfg.Workers = workers
	cfg.Check = CheckStrict
	cfg.Metrics = obs.NewMetrics()
	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatalf("%v workers=%d: %v", strat, workers, err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("%v workers=%d: module invalid: %v", strat, workers, err)
	}
	return rep, metricsJSON(t, cfg.Metrics)
}

// TestWorkersDeterminism is the whole-output form of the determinism
// contract: the Report — pair log, counters, LSH statistics,
// strict-mode Diagnostics — and the deterministic metrics export must
// be byte-identical for every Workers setting.
func TestWorkersDeterminism(t *testing.T) {
	withParallelism(t, 8)
	bandedBefore := align.BandedHits()
	for _, strat := range []Strategy{F3MStatic, F3MAdaptive} {
		for _, seed := range []int64{42, 103} {
			for gi, gen := range detGenConfigs(seed) {
				rep1, json1 := runDetRun(t, strat, gen, 1)
				key1 := reportKey(t, rep1)
				if rep1.Merges == 0 {
					t.Fatalf("%v seed %d gen %d: baseline merged nothing; test is vacuous", strat, seed, gi)
				}
				for _, w := range []int{2, 8} {
					rep, json := runDetRun(t, strat, gen, w)
					if key := reportKey(t, rep); key != key1 {
						t.Errorf("%v seed %d gen %d: report differs at Workers=%d:\n--- w=1 ---\n%s\n--- w=%d ---\n%s",
							strat, seed, gi, w, key1, w, key)
					}
					if json != json1 {
						t.Errorf("%v seed %d gen %d: deterministic metrics JSON differs at Workers=%d", strat, seed, gi, w)
					}
				}
			}
		}
	}
	// The determinism contract must hold *through* the banded aligner,
	// not around it: if the fast path never fired over this corpus the
	// byte-identical comparison above proved nothing about it.
	if align.BandedHits() == bandedBefore {
		t.Error("banded fast path never engaged across the determinism corpus; banded coverage is vacuous")
	}
}

// addTupleDrivers is addDrivers over a caller-supplied salt corpus: one
// variadic driver per (candidate, salt), so the differential check
// exercises each merged function on several argument tuples.
func addTupleDrivers(m *ir.Module, salts []int64) []string {
	c := m.Ctx
	var names []string
	for _, f := range candidates(m) {
		for si, salt := range salts {
			dn := fmt.Sprintf("tdrv_%s_%d", f.Name(), si)
			d := m.NewFunc(dn, c.VariadicFunc(c.I32))
			bd := ir.NewBuilder(d.NewBlock("entry"))
			args := make([]ir.Value, len(f.Params))
			for i, p := range f.Params {
				if p.Ty.IsFloat() {
					args[i] = ir.ConstFloat(p.Ty, float64(salt)+0.5)
				} else {
					args[i] = ir.ConstInt(p.Ty, salt+int64(i))
				}
			}
			r := ir.Value(bd.Call(f, args...))
			switch rt := f.ReturnType(); {
			case rt == c.I32:
			case rt.IsFloat():
				r = bd.Cast(ir.OpFPToSI, r, c.I32)
			case rt.IsInt() && rt.Bits > 32:
				r = bd.Cast(ir.OpTrunc, r, c.I32)
			case rt.IsInt():
				r = bd.Cast(ir.OpSExt, r, c.I32)
			default:
				r = ir.ConstInt(c.I32, 0)
			}
			bd.Ret(r)
			names = append(names, dn)
		}
	}
	return names
}

// TestPipelineTupleDifferential is the pipeline-level differential
// sweep: run the full pass at 1, 2 and 8 workers and check, through
// the interpreter, that every driver — calling the original functions
// on an argument-tuple corpus through their possibly rewritten call
// sites — still computes what the unmerged reference module computes.
func TestPipelineTupleDifferential(t *testing.T) {
	withParallelism(t, 8)
	salts := []int64{0, 5, -7, 95}
	gcfg := irgen.DefaultConfig(7)
	gcfg.Callers = 0

	ref := irgen.Generate(gcfg).Module
	drivers := addTupleDrivers(ref, salts)
	want := make(map[string]int64, len(drivers))
	for _, d := range drivers {
		want[d] = runDriver(t, ref, d)
	}

	for _, w := range []int{1, 2, 8} {
		work := irgen.Generate(gcfg).Module
		addTupleDrivers(work, salts)
		cfg := DefaultConfig(F3MStatic)
		cfg.Workers = w
		cfg.Check = CheckStrict
		rep, err := Run(work, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.Merges == 0 {
			t.Fatalf("workers=%d: no merges; differential is vacuous", w)
		}
		if len(rep.Diagnostics) != 0 {
			t.Fatalf("workers=%d: strict diagnostics: %v", w, rep.Diagnostics)
		}
		for _, d := range drivers {
			if got := runDriver(t, work, d); got != want[d] {
				t.Errorf("workers=%d: %s = %d, want %d", w, d, got, want[d])
			}
		}
	}
}

package core

import (
	"strings"
	"testing"

	"f3m/internal/align"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

// staleFixture builds a module with two identical mergeable functions.
func staleFixture(t *testing.T) (*ir.Module, *ir.Function, *ir.Function) {
	t.Helper()
	src := `
define i32 @left(i32 %x) {
entry:
  %a = add i32 %x, 3
  %b = mul i32 %a, 7
  %c = xor i32 %b, 11
  %d = add i32 %c, 5
  ret i32 %d
}
define i32 @right(i32 %x) {
entry:
  %a = add i32 %x, 3
  %b = mul i32 %a, 7
  %c = xor i32 %b, 11
  %d = add i32 %c, 5
  ret i32 %d
}`
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Func("left"), m.Func("right")
}

// TestStaleOperandRevalidation: attemptMerge must refuse a pair whose
// operand is no longer a live module member, before any alignment work.
func TestStaleOperandRevalidation(t *testing.T) {
	m, fa, fb := staleFixture(t)
	m.RemoveFunc(fb)

	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	rep := &Report{}
	ok, err := attemptMerge(m, fa, fb, cfg, rep, nil, 0, 1, nil)
	if err != nil || ok {
		t.Fatalf("attemptMerge on stale operand = (%v, %v), want rejection", ok, err)
	}
	if got := cfg.Metrics.CounterValue("merge.stale_operand"); got != 1 {
		t.Errorf("merge.stale_operand = %d, want 1", got)
	}
	if rep.Merges != 0 || rep.Attempts != 1 {
		t.Errorf("report merges=%d attempts=%d, want 0/1", rep.Merges, rep.Attempts)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Errorf("module invalid after rejection: %v", err)
	}
}

// TestStaleCommitFault seeds the race the commit-time re-validation
// guards against: the merge hook consumes an operand between alignment
// and commit. The committer must detect it, discard the merged
// function, and leave the module valid.
func TestStaleCommitFault(t *testing.T) {
	m, fa, fb := staleFixture(t)

	orig := mergePair
	mergePair = func(mm *ir.Module, a, b *ir.Function, opts merge.Options) (*merge.Result, error) {
		res, err := orig(mm, a, b, opts)
		if err == nil {
			mm.RemoveFunc(b) // the seeded fault
		}
		return res, err
	}
	defer func() { mergePair = orig }()

	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	rep := &Report{}
	ok, err := attemptMerge(m, fa, fb, cfg, rep, nil, 0, 1, nil)
	if err != nil || ok {
		t.Fatalf("attemptMerge with consumed operand = (%v, %v), want discard", ok, err)
	}
	if got := cfg.Metrics.CounterValue("merge.stale_commit"); got != 1 {
		t.Errorf("merge.stale_commit = %d, want 1", got)
	}
	if rep.Merges != 0 {
		t.Errorf("report shows %d merges, want 0", rep.Merges)
	}
	if m.Func("left") != fa {
		t.Error("surviving operand was disturbed")
	}
	if strings.Contains(moduleFuncNames(m), "merged.") {
		t.Error("discarded merged function still in module")
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Errorf("module invalid after discard: %v", err)
	}
}

func moduleFuncNames(m *ir.Module) string {
	var names []string
	for _, f := range m.Funcs {
		names = append(names, f.Name())
	}
	return strings.Join(names, ",")
}

// TestCachePoisonIllFormed injects structurally broken cache entries
// into every merge attempt of a full pipeline run. Validation must
// reject each one and recompute, leaving the report byte-identical to
// a clean run and the strict checks silent.
func TestCachePoisonIllFormed(t *testing.T) {
	cleanRep, _ := runDetRun(t, F3MStatic, irgen.DefaultConfig(42), 1)
	cleanKey := reportKey(t, cleanRep)

	m := irgen.Generate(irgen.DefaultConfig(42)).Module
	cch := align.NewCache(0)
	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckStrict
	cfg.Metrics = obs.NewMetrics()
	cfg.MergeOpts.AlignCache = cch

	orig := mergePair
	mergePair = func(mm *ir.Module, a, b *ir.Function, opts merge.Options) (*merge.Result, error) {
		cch.CorruptNextForTest(1, true)
		return orig(mm, a, b, opts)
	}
	defer func() { mergePair = orig }()

	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if key := reportKey(t, rep); key != cleanKey {
		t.Errorf("poisoned-cache report differs from clean run:\n--- clean ---\n%s\n--- poisoned ---\n%s", cleanKey, key)
	}
	if st := cch.Stats(); st.Rejects == 0 {
		t.Error("no cache rejects recorded; the fault never fired")
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("strict diagnostics under cache poisoning: %v", rep.Diagnostics)
	}
}

// TestCachePoisonWellFormed injects legal-but-wrong (all-gap) cache
// entries, which pass validation by construction. Merge decisions may
// shift, but the merger's own operand re-verification must keep the
// module valid and semantics intact.
func TestCachePoisonWellFormed(t *testing.T) {
	gcfg := irgen.DefaultConfig(42)
	gcfg.Callers = 0
	ref := irgen.Generate(gcfg).Module
	drivers := addDrivers(ref)
	want := make(map[string]int64, len(drivers))
	for _, d := range drivers {
		want[d] = runDriver(t, ref, d)
	}

	work := irgen.Generate(gcfg).Module
	addDrivers(work)
	cch := align.NewCache(0)
	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckStrict
	cfg.MergeOpts.AlignCache = cch

	orig := mergePair
	mergePair = func(mm *ir.Module, a, b *ir.Function, opts merge.Options) (*merge.Result, error) {
		cch.CorruptNextForTest(1, false)
		return orig(mm, a, b, opts)
	}
	defer func() { mergePair = orig }()

	rep, err := Run(work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("strict diagnostics under well-formed poisoning: %v", rep.Diagnostics)
	}
	if err := ir.VerifyModule(work); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	for _, d := range drivers {
		if got := runDriver(t, work, d); got != want[d] {
			t.Errorf("%s = %d, want %d", d, got, want[d])
		}
	}
}

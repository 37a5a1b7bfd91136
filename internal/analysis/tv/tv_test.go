package tv_test

import (
	"testing"

	"f3m/internal/analysis/tv"
	"f3m/internal/irgen"
	"f3m/internal/merge"
)

// TestValidatorCleanOnPinnedPairs merges, alone, pairs from the
// 4000-function f3m-cfg corpora on which the validator used to report
// false refutations. Cleanup left a phi operand pointing at a phi it
// had deleted, and the two canonical forms then disagreed: side B of
// the first pair had extra instructions ("block %entry has 7
// instructions"), and both sides of the second mapped one original
// value to two merged ones ("corresponds to both"). Each commit must
// now validate clean.
func TestValidatorCleanOnPinnedPairs(t *testing.T) {
	cases := []struct {
		seed int64
		a, b string
	}{
		{1000407, "fam45_t0", "fam83_t0"},
		{3, "fam318_v0", "fam318_v2"},
	}
	spec := irgen.SuiteSpec{Funcs: 4000, AvgInstrs: 25, CloneFraction: 0.4}
	for _, c := range cases {
		cfg := spec.Config(c.seed)
		cfg.PermutedFraction = 0.3
		m := irgen.Generate(cfg).Module
		irgen.AddDrivers(m)
		fa, fb := m.Func(c.a), m.Func(c.b)
		if fa == nil || fb == nil {
			t.Fatalf("seed %d: corpus lacks @%s or @%s", c.seed, c.a, c.b)
		}
		opts := merge.DefaultOptions()
		opts.CFGAlign = true
		opts.SnapshotOriginals = true
		opts.Index = merge.NewCallIndex(m)
		res, err := merge.Pair(m, fa, fb, opts)
		if err != nil {
			t.Fatalf("seed %d: Pair(%s, %s): %v", c.seed, c.a, c.b, err)
		}
		info := merge.Commit(m, res)
		if ds := tv.NewValidator(nil).ValidateCommit(m, info); len(ds) != 0 {
			t.Errorf("seed %d: %s+%s refuted:\n%s", c.seed, c.a, c.b, ds.RenderString())
		}
	}
}

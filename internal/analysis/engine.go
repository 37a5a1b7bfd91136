package analysis

import (
	"f3m/internal/ir"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

// CheckerTV names the translation validator in diagnostics.
const CheckerTV = "tv"

// CommitValidator is the hook the `-check=validate` tier installs: a
// per-commit semantic check run right after the structural audit. The
// concrete implementation lives in analysis/tv (it needs the passes
// package, which must not import analysis).
type CommitValidator interface {
	// ValidateCommit proves one commit semantics-preserving or returns
	// error diagnostics pinpointing the first divergence per side.
	ValidateCommit(m *ir.Module, info *merge.CommitInfo) Diagnostics
}

// Engine runs the checkers, accumulates their findings, and publishes
// observability counters. One Engine serves one pipeline run; like the
// Manager it is not safe for concurrent use — the pipeline invokes it
// only from the sequential commit loop and the pre/post phases, so its
// output is deterministic for every Workers setting.
type Engine struct {
	mgr *Manager
	met *obs.Metrics

	// Validator, when non-nil, runs on every commit after the merge
	// audit (set by the pipeline at -check=validate).
	Validator CommitValidator

	// merged records every committed merged function so the linter can
	// sweep them after the pipeline finishes (by then they have been
	// through the full cleanup sequence, and may themselves have been
	// consumed by later merges).
	merged []*ir.Function

	// All accumulates every diagnostic the engine produced, in emission
	// order. Render sorts, so accumulation order does not leak into
	// output.
	All Diagnostics
}

// NewEngine returns an engine publishing through met (which may be nil;
// obs metrics are nil-safe).
func NewEngine(met *obs.Metrics) *Engine {
	return &Engine{mgr: NewManager(), met: met}
}

// Manager exposes the engine's fact cache.
func (e *Engine) Manager() *Manager { return e.mgr }

// StrictModule runs the strict verifier over the whole module.
func (e *Engine) StrictModule(m *ir.Module) Diagnostics {
	return e.record(CheckerStrictVerify, StrictVerify(m))
}

// SweepModule runs the whole-module dangling-reference sweep on its
// own, reported as merge-audit findings. The CheckFast tier calls it
// once at the end of the run to back the per-commit audit, which only
// walks what each commit touched; stricter tiers get the same sweep
// from StrictModule.
func (e *Engine) SweepModule(m *ir.Module) Diagnostics {
	return e.record(CheckerMergeAudit, DanglingRefs(m, CheckerMergeAudit))
}

// AuditCommit audits one committed merge and remembers the merged
// function for the post-run lint sweep. Under -check=validate it then
// runs the translation validator on the same commit.
func (e *Engine) AuditCommit(m *ir.Module, info *merge.CommitInfo) Diagnostics {
	e.merged = append(e.merged, info.Merged)
	ds := e.record(CheckerMergeAudit, AuditCommit(e.mgr, m, info))
	if e.Validator != nil {
		ds = append(ds, e.record(CheckerTV, e.Validator.ValidateCommit(m, info))...)
	}
	return ds
}

// LintMerged lints every recorded merged function still present in the
// module (later merges may have replaced earlier merged functions, and
// a thunked replacement is no longer cleanup-shaped IR).
func (e *Engine) LintMerged(m *ir.Module) Diagnostics {
	var ds Diagnostics
	for _, g := range e.merged {
		if m.Func(g.Name()) != g {
			continue
		}
		ds = append(ds, LintFunc(e.mgr, g)...)
	}
	return e.record(CheckerLint, ds)
}

// record accumulates ds and publishes the metrics for one checker run:
// the global check counter and severity totals, per-checker run and
// finding counters, and the findings-per-check histogram.
func (e *Engine) record(checker string, ds Diagnostics) Diagnostics {
	e.All = append(e.All, ds...)

	e.met.Counter("analysis.checks").Inc()
	e.met.Counter("analysis.checker." + checker + ".runs").Inc()
	if n := len(ds); n > 0 {
		e.met.Counter("analysis.checker." + checker + ".diags").Add(int64(n))
		e.met.Counter("analysis.diagnostics.error").Add(int64(ds.Count(Error)))
		e.met.Counter("analysis.diagnostics.warning").Add(int64(ds.Count(Warning) - ds.Count(Error)))
		e.met.Counter("analysis.diagnostics.info").Add(int64(len(ds) - ds.Count(Warning)))
	}
	e.met.Histogram("analysis.diags_per_check", []float64{0, 1, 2, 4, 8, 16, 32}).
		Observe(float64(len(ds)))
	return ds
}

package analysis

import (
	"fmt"

	"f3m/internal/ir"
	"f3m/internal/merge"
)

// CheckerMergeAudit names the merge auditor in diagnostics.
const CheckerMergeAudit = "merge-audit"

// AuditCommit statically validates one committed merge against the
// module, proving the properties whose silent violation is exactly the
// bug class the paper's Section III-E fixes chase:
//
//   - the merged function is in the module and carries an i1
//     discriminator as its first parameter;
//   - the discriminator feeds only control decisions (condbr and
//     select conditions), i.e. it channels every diverging path and
//     never leaks into computation;
//   - a thunked original keeps its name and signature and forwards
//     exactly its own parameters (per the recorded parameter map, undef
//     for unshared slots) plus the correct discriminator constant;
//   - a deleted original is gone from the module, and the commit's
//     call-site index (CommitInfo.Index, when set) holds no call site
//     or address-taken use of it;
//   - no function the commit rewrote references a function that is no
//     longer in the module, and every direct call of the merged
//     function there passes the full merged parameter list,
//     discriminator first.
//
// The cost is proportional to the commit, not the module: only the
// functions the commit touched are walked (the merged function, the
// thunks and CommitInfo.Callers). A stale reference anywhere else is
// left to the end-of-run sweep (DanglingRefs).
func AuditCommit(mgr *Manager, m *ir.Module, info *merge.CommitInfo) Diagnostics {
	// A commit touches a known set of functions: the merged one is new,
	// the originals were thunked or deleted, and CommitInfo.Callers had
	// call sites rewritten in place. Invalidating exactly that set keeps
	// every other function's cached facts live across the commit. The
	// call graph has new edges module-wide, so it is always dropped.
	mgr.Invalidate(info.Merged)
	mgr.Invalidate(info.A.Fn)
	mgr.Invalidate(info.B.Fn)
	for _, caller := range info.Callers {
		mgr.Invalidate(caller)
	}
	mgr.cg = nil
	mgr.cgMod = nil

	var ds Diagnostics
	errf := func(fn, blk, instr, format string, args ...any) {
		ds = append(ds, Diagnostic{
			Checker: CheckerMergeAudit, Sev: Error,
			Func: fn, Block: blk, Instr: instr,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	g := info.Merged
	if m.Func(g.Name()) != g {
		errf(g.Name(), "", "", "merged function is not in the module")
		return ds
	}
	ctx := m.Ctx
	if len(g.Params) == 0 || g.Params[0].Ty != ctx.I1 {
		errf(g.Name(), "", "", "merged function lacks a leading i1 discriminator parameter")
	} else {
		ds = append(ds, auditDiscriminator(g)...)
	}

	ds = append(ds, auditSide(m, g, info.A, info.Index, true)...)
	ds = append(ds, auditSide(m, g, info.B, info.Index, false)...)

	for _, f := range touchedFuncs(m, info) {
		funcRefs(f, func(b *ir.Block, in *ir.Instr, callee *ir.Function, isCallee bool) {
			if m.Func(callee.Name()) != callee {
				kind := "reference to"
				if isCallee {
					kind = "call site still targets"
				}
				errf(f.Name(), b.Name(), instrLabel(in),
					"%s deleted function @%s", kind, callee.Name())
				return
			}
			if isCallee && callee == g {
				ds = append(ds, auditMergedCall(f, b, in, g)...)
			}
		})
	}
	return ds
}

// touchedFuncs lists, without duplicates, the functions a commit
// rewrote that are still live in the module: the merged function, the
// thunked originals and the callers whose call sites were redirected.
func touchedFuncs(m *ir.Module, info *merge.CommitInfo) []*ir.Function {
	cands := []*ir.Function{info.Merged}
	for _, side := range []merge.CommitSide{info.A, info.B} {
		if side.Thunked {
			cands = append(cands, side.Fn)
		}
	}
	cands = append(cands, info.Callers...)
	seen := make(map[*ir.Function]bool, len(cands))
	out := cands[:0]
	for _, f := range cands {
		if seen[f] || m.Func(f.Name()) != f {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// funcRefs calls visit for every function-valued operand in f's body;
// isCallee marks the callee slot of a call or invoke. It is the one
// walker behind both the per-commit audit and DanglingRefs.
func funcRefs(f *ir.Function, visit func(b *ir.Block, in *ir.Instr, callee *ir.Function, isCallee bool)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				if callee, ok := op.(*ir.Function); ok {
					visit(b, in, callee, (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0)
				}
			}
		}
	}
}

// DanglingRefs sweeps the whole module once for references to
// functions that are not, or are no longer, part of it, reporting each
// under checker. The pipeline runs it at the end of every checked run,
// behind the per-commit audit, which only looks at what each commit
// touched.
func DanglingRefs(m *ir.Module, checker string) Diagnostics {
	present := make(map[*ir.Function]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		present[f] = true
	}
	var ds Diagnostics
	for _, f := range m.Funcs {
		funcRefs(f, func(b *ir.Block, in *ir.Instr, callee *ir.Function, isCallee bool) {
			if present[callee] {
				return
			}
			kind := "reference to"
			if isCallee {
				kind = "call to"
			}
			ds = append(ds, Diagnostic{
				Checker: checker, Sev: Error,
				Func: f.Name(), Block: b.Name(), Instr: instrLabel(in),
				Msg: fmt.Sprintf("%s @%s which is not a function in the module", kind, callee.Name()),
			})
		})
	}
	return ds
}

// auditDiscriminator checks that every use of the merged function's
// discriminator parameter is a control decision: the condition slot of
// a condbr or select. Any other use means a diverging path was wired
// into computation instead of being channelled by the identifier.
func auditDiscriminator(g *ir.Function) Diagnostics {
	var ds Diagnostics
	fid := ir.Value(g.Params[0])
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				if op != fid {
					continue
				}
				condPos := (in.Op == ir.OpCondBr || in.Op == ir.OpSelect) && i == 0
				if !condPos {
					ds = append(ds, Diagnostic{
						Checker: CheckerMergeAudit, Sev: Error,
						Func: g.Name(), Block: b.Name(), Instr: instrLabel(in),
						Msg: fmt.Sprintf("discriminator %%%s used outside a condbr/select condition (operand %d of %s)",
							g.Params[0].Name(), i, in.Op),
					})
				}
			}
		}
	}
	return ds
}

// auditSide validates the post-commit state of one replaced original.
// ix, when non-nil, is the commit's call-site index.
func auditSide(m *ir.Module, g *ir.Function, side merge.CommitSide, ix *merge.CallIndex, idA bool) Diagnostics {
	var ds Diagnostics
	errf := func(blk, instr, format string, args ...any) {
		ds = append(ds, Diagnostic{
			Checker: CheckerMergeAudit, Sev: Error,
			Func: side.Name, Block: blk, Instr: instr,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	if !side.Thunked {
		if m.Func(side.Name) == side.Fn {
			errf("", "", "deleted original is still in the module")
		}
		if ix != nil {
			if n := ix.NumCallSites(side.Fn); n > 0 {
				errf("", "", "deleted original still has %d indexed call sites", n)
			}
			if ix.HasNonCallUses(side.Fn) {
				errf("", "", "deleted original still has indexed address-taken uses")
			}
		}
		return ds
	}

	f := side.Fn
	if m.Func(side.Name) != f {
		errf("", "", "thunk is not in the module under the original name")
		return ds
	}
	if f.Sig != side.Sig {
		errf("", "", "thunk signature %s differs from the original %s", f.Sig, side.Sig)
		return ds
	}
	if len(f.Blocks) != 1 {
		errf("", "", "thunk has %d blocks, want 1", len(f.Blocks))
		return ds
	}
	b := f.Blocks[0]
	if len(b.Instrs) != 2 {
		errf(b.Name(), "", "thunk body has %d instructions, want call+ret", len(b.Instrs))
		return ds
	}
	call, ret := b.Instrs[0], b.Instrs[1]
	if call.Op != ir.OpCall || call.Operands[0] != ir.Value(g) {
		errf(b.Name(), instrLabel(call), "thunk does not call the merged function @%s", g.Name())
		return ds
	}
	args := call.CallArgs()
	if len(args) != len(g.Params) {
		errf(b.Name(), instrLabel(call), "thunk passes %d arguments, merged function has %d parameters",
			len(args), len(g.Params))
		return ds
	}
	if c, ok := args[0].(*ir.Const); !ok || c.Ty != m.Ctx.I1 || (c.IntVal != 0) == !idA {
		errf(b.Name(), instrLabel(call), "thunk discriminator argument %s, want i1 %v", args[0].Ident(), idA)
	}
	for i := 1; i < len(g.Params); i++ {
		if oi, ok := side.ParamMap[i]; ok {
			if oi < 0 || oi >= len(f.Params) {
				errf(b.Name(), instrLabel(call), "parameter map slot %d points at argument %d of %d", i, oi, len(f.Params))
				continue
			}
			if args[i] != ir.Value(f.Params[oi]) {
				errf(b.Name(), instrLabel(call),
					"thunk argument %d is %s, want forwarded parameter %%%s", i, args[i].Ident(), f.Params[oi].Name())
			}
			continue
		}
		c, ok := args[i].(*ir.Const)
		if !ok || !c.Undef {
			errf(b.Name(), instrLabel(call), "thunk argument %d is %s, want undef (unshared slot)", i, args[i].Ident())
		} else if c.Ty != g.Params[i].Ty {
			errf(b.Name(), instrLabel(call), "thunk undef argument %d has type %s, want %s", i, c.Ty, g.Params[i].Ty)
		}
	}
	if ret.Op != ir.OpRet {
		errf(b.Name(), instrLabel(ret), "thunk does not end in ret")
		return ds
	}
	if g.ReturnType().IsVoid() {
		if len(ret.Operands) != 0 {
			errf(b.Name(), instrLabel(ret), "void thunk returns a value")
		}
	} else if len(ret.Operands) != 1 || ret.Operands[0] != ir.Value(call) {
		errf(b.Name(), instrLabel(ret), "thunk does not return the merged call's result")
	}
	return ds
}

// auditMergedCall checks the shape of one rewritten call site: full
// merged arity with an i1 discriminator in the leading slot.
func auditMergedCall(f *ir.Function, b *ir.Block, in *ir.Instr, g *ir.Function) Diagnostics {
	var ds Diagnostics
	errf := func(format string, args ...any) {
		ds = append(ds, Diagnostic{
			Checker: CheckerMergeAudit, Sev: Error,
			Func: f.Name(), Block: b.Name(), Instr: instrLabel(in),
			Msg: fmt.Sprintf(format, args...),
		})
	}
	args := in.CallArgs()
	if len(args) != len(g.Params) {
		errf("call to merged @%s passes %d arguments, want %d", g.Name(), len(args), len(g.Params))
		return ds
	}
	if len(args) > 0 && args[0].Type() != g.Params[0].Ty {
		errf("call to merged @%s passes %s discriminator, want i1", g.Name(), args[0].Type())
	}
	return ds
}

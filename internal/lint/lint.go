// Package lint is the repository's custom static-analysis suite: six
// go/analysis analyzers that machine-enforce the invariants the engine
// packages otherwise state only in comments and runtime tests.
//
//   - ctxpoll: enumeration loops in the engine packages must stay
//     cancellable — poll Ctx.Err()/Ctx.Done(), delegate to a function
//     that takes the context/engine options, or carry //lint:coarse.
//   - clockinject: internal/jobs, internal/journal, internal/service
//     and internal/router must route all time through the injectable
//     clock; direct time.Now/Since/Sleep/... uses need
//     //lint:wallclock <reason>.
//   - snapshotparity: every exported numeric field reachable from
//     service.StatsResponse must be rendered by renderMetrics, so
//     /v1/stats and /metrics cannot drift at compile time.
//   - fsyncbeforerename: in internal/journal, os.Rename must be
//     dominated by a (*os.File).Sync — the tmp+fsync+rename discipline
//     that makes replay sound.
//   - goroutinectx: a go statement must receive a context.Context or
//     register with a sync.WaitGroup, so goroutines cannot silently
//     outlive drain/shutdown.
//   - spanend: an obs.StartSpan (or Tracer.Start) must be closed by
//     End (Finish) on every control-flow path, so phase histograms
//     and trace records cannot silently lose observations.
//
// The annotation vocabulary (documented in DESIGN.md) is a line
// comment on the flagged line or the line above:
//
//	//lint:coarse [reason]      — loop is deliberately not cancellable
//	//lint:wallclock <reason>   — sanctioned wall-clock access
//	//lint:unmetered <reason>   — stats field deliberately unrendered
//	//lint:unsynced <reason>    — rename deliberately without fsync
//	//lint:detached <reason>    — goroutine deliberately unsupervised
//	//lint:unspanned <reason>   — span close obligation handed off
//
// cmd/lphlint runs the suite (scoped per Suite) as a make-check gate;
// internal/lint/linttest runs each analyzer against testdata fixtures.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Rule pairs an analyzer with the import-path scope cmd/lphlint applies
// it under. An empty Paths list means every loaded package; otherwise a
// package is in scope when its import path equals an entry or ends with
// "/"+entry (so the scopes also match fixture and fork layouts).
type Rule struct {
	Analyzer *analysis.Analyzer
	Paths    []string
}

// Suite is the repository's analyzer catalog with the package scopes
// the invariants are stated over.
func Suite() []Rule {
	return []Rule{
		{CtxPoll, []string{"internal/search", "internal/core", "internal/cert", "internal/simulate", "internal/experiments"}},
		{ClockInject, []string{"internal/jobs", "internal/journal", "internal/service", "internal/router"}},
		{SnapshotParity, []string{"internal/service"}},
		{FsyncBeforeRename, []string{"internal/journal"}},
		{GoroutineCtx, nil},
		{SpanEnd, []string{"internal/obs", "internal/service", "internal/jobs", "internal/journal", "internal/router"}},
	}
}

// Analyzers returns just the analyzers of Suite, for drivers that apply
// their own scoping (the fixture tests).
func Analyzers() []*analysis.Analyzer {
	rules := Suite()
	out := make([]*analysis.Analyzer, len(rules))
	for i, r := range rules {
		out[i] = r.Analyzer
	}
	return out
}

// InScope reports whether a package import path falls under the rule's
// scope.
func (r Rule) InScope(pkgPath string) bool {
	if len(r.Paths) == 0 {
		return true
	}
	for _, p := range r.Paths {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// annotation is one parsed //lint: comment.
type annotation struct {
	verb   string
	reason string
}

// annotations indexes //lint: comments by file and line.
type annotations map[*token.File]map[int][]annotation

// gatherAnnotations scans every comment of the pass for the //lint:
// vocabulary. The index is cheap enough to rebuild per analyzer.
func gatherAnnotations(pass *analysis.Pass) annotations {
	out := make(annotations)
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.FileStart)
		if tf == nil {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				verb, reason, _ := strings.Cut(text, " ")
				if out[tf] == nil {
					out[tf] = make(map[int][]annotation)
				}
				line := tf.Line(c.Pos())
				out[tf][line] = append(out[tf][line], annotation{verb: verb, reason: strings.TrimSpace(reason)})
			}
		}
	}
	return out
}

// find returns the annotation with the given verb attached to pos — on
// the same line or the line immediately above — and whether one exists.
func (a annotations) find(fset *token.FileSet, pos token.Pos, verb string) (annotation, bool) {
	tf := fset.File(pos)
	lines, ok := a[tf]
	if !ok {
		return annotation{}, false
	}
	line := tf.Line(pos)
	for _, l := range []int{line, line - 1} {
		for _, ann := range lines[l] {
			if ann.verb == verb {
				return ann, true
			}
		}
	}
	return annotation{}, false
}

// allowed reports whether pos carries the verb's annotation; when the
// verb requires a reason and the annotation has none, it reports the
// omission instead of honoring the annotation.
func (a annotations) allowed(pass *analysis.Pass, pos token.Pos, verb string, reasonRequired bool) bool {
	ann, ok := a.find(pass.Fset, pos, verb)
	if !ok {
		return false
	}
	if reasonRequired && ann.reason == "" {
		pass.Reportf(pos, "//lint:%s needs a reason (\"//lint:%s <why>\")", verb, verb)
		return true // the annotation still acknowledges the site
	}
	return true
}

// named unwraps t (through pointers and aliases) to its named type, or
// nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type pkg.name,
// matching the package by name so engine fixtures can model the real
// packages.
func isNamed(t types.Type, pkgName, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && n.Obj().Pkg().Name() == pkgName
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool { return isNamed(t, "context", "Context") }

// isEngineOptions reports whether t is the search engine's Options
// carrier (which holds the cancellation context).
func isEngineOptions(t types.Type) bool { return isNamed(t, "search", "Options") }

// isGameEngine reports whether t is the core game engine's Engine
// configuration (which carries search.Options, and with it the
// cancellation context, into the memo and leaf enumeration loops).
func isGameEngine(t types.Type) bool { return isNamed(t, "core", "Engine") }

// hasEnginePort reports whether the signature accepts a cancellation
// port: a context.Context, a search.Options, or a core.Engine
// parameter. Calls through such signatures count as delegating
// cancellation.
func hasEnginePort(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isContext(t) || isEngineOptions(t) || isGameEngine(t) {
			return true
		}
	}
	return false
}

// calleeSignature returns the signature of a call's callee, or nil for
// conversions and builtins.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// calleeObject resolves the object a call's callee refers to (function,
// method, or func-typed variable/field), or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// firstSegment returns the first path element of an import path.
func firstSegment(path string) string {
	seg, _, _ := strings.Cut(path, "/")
	return seg
}

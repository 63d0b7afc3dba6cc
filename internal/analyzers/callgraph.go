package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callgraph.go: the interprocedural summary soundflow consumes. Every
// function declared in the analyzed packages gets a FuncInfo keyed by
// its canonical ID string ("pkg/path.Name" or "pkg/path.(*Recv).Name");
// keys are strings rather than types.Object so summaries compose
// across passes even when packages were type-checked under different
// FileSets (the parallel loader gives each shard its own).

// FuncInfo is the per-function node of the program call graph.
type FuncInfo struct {
	ID   string
	Pass *Pass
	Decl *ast.FuncDecl

	// UpperResult: the function returns a value tainted "upper" (an
	// over-approximating bound or saturation sentinel) — see soundflow.
	// Valid after BuildProgram returns.
	UpperResult bool
}

// Program is the whole analyzed package set: the function table.
type Program struct {
	funcs map[string]*FuncInfo
}

// Func returns the summary for the given canonical ID, or nil.
func (pr *Program) Func(id string) *FuncInfo {
	if pr == nil {
		return nil
	}
	return pr.funcs[id]
}

// FuncIDOf returns the canonical ID of a *types.Func (methods include
// their receiver type), or "" for nil/builtin objects.
func FuncIDOf(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		ptr = "*"
	}
	name := "?"
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return fn.Pkg().Path() + ".(" + ptr + name + ")." + fn.Name()
}

// calleeID resolves the static callee of a call expression (package
// function, method, or imported function) to its canonical ID, or ""
// for builtins, function values and interface dispatch through
// non-constant receivers.
func (p *Pass) calleeID(call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return FuncIDOf(fn)
}

// BuildProgram indexes every function declaration of the passes, sets
// each pass's Prog to the result, and computes the UpperResult
// summaries to a fixed point. Prog is set first: returnsUpper reads
// callee summaries through it, so each round carries the taint one
// call level further.
func BuildProgram(passes []*Pass) *Program {
	pr := &Program{funcs: make(map[string]*FuncInfo)}
	for _, p := range passes {
		p.Prog = pr
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := FuncIDOf(p.Info.Defs[fd.Name])
				if id == "" {
					continue
				}
				pr.funcs[id] = &FuncInfo{ID: id, Pass: p, Decl: fd}
			}
		}
	}

	// Deterministic iteration order for the fixed point.
	ids := make([]string, 0, len(pr.funcs))
	for id := range pr.funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// UpperResult is a monotone bit, so the loop terminates; the
	// function count bounds the round count.
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			fi := pr.funcs[id]
			if !fi.UpperResult && returnsUpper(fi) {
				fi.UpperResult = true
				changed = true
			}
		}
	}
	return pr
}

// qualifiedName renders pkgpath.Name for a package-level object, or ""
// when obj is not package-scoped.
func qualifiedName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// matchesQualified reports whether the qualified name (or func ID)
// matches one of the configured patterns. Patterns are matched as
// suffixes on a package-path element boundary so configs can say
// "internal/twca.(*Analysis).boundsAt" without hard-coding the module
// path.
func matchesQualified(name string, patterns []string) bool {
	if name == "" {
		return false
	}
	for _, pat := range patterns {
		if name == pat || strings.HasSuffix(name, "/"+pat) {
			return true
		}
	}
	return false
}

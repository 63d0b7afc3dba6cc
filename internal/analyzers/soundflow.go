package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Soundflow guards the direction of every bound the pipeline reports:
// the TWCA reproduction may only ever OVER-approximate (degraded
// dmm(k) ≥ exact dmm(k), Ω capacities and saturation sentinels are
// ceilings). Values originating from the configured upper-bound
// sources — the degradation ladder's omega-sum/trivial rungs, Ω
// saturation sentinels, curves.Infinity — are tainted "upper"; an
// operation that can only shrink such a value (min against an
// untainted operand, subtraction with the bound as minuend, an
// explicit clamp-down `if bound > x { bound = x }`) is reported,
// because tightening an upper bound is exactly the soundness bug the
// property tests can only catch for today's inputs. Functions proven
// sound by dedicated dominance property tests are allowlisted in
// Config.SoundflowAllow.
//
// The taint is interprocedural: a function whose return value derives
// from an upper source is itself a source at every call site (the
// call-graph summary layer propagates this to a fixed point).
var Soundflow = &Analyzer{
	Name: RuleSoundflow,
	Doc:  "upper-bound-tainted values must not flow through tightening operations (min, minuend subtraction, clamp-down)",
	Run:  runSoundflow,
}

// upperPreserving are helpers whose result stays an upper bound when
// any argument is one: saturating arithmetic and max.
var upperPreserving = []string{
	"internal/curves.AddSat",
	"internal/curves.MulSat",
	"internal/curves.MaxTime",
}

func runSoundflow(p *Pass) {
	if !p.pathMatches(p.Config.SoundflowPkgs) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if matchesQualified(FuncIDOf(p.Info.Defs[fd.Name]), p.Config.SoundflowAllow) {
				continue
			}
			tainted := p.upperTaint(fd.Body)
			p.checkSoundflowBody(fd.Body, tainted)
		}
	}
}

// upperTaint computes the set of local objects that may hold an
// upper-bound-tainted value anywhere in body: a flow-insensitive
// fixed point over assignments ("ever tainted" is the right
// sensitivity for clamp detection, where the clamp itself re-assigns
// the variable).
func (p *Pass) upperTaint(body *ast.BlockStmt) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj == nil || tainted[obj] {
						continue
					}
					if p.isUpperExpr(n.Rhs[i], tainted) {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					obj := p.Info.Defs[name]
					if obj == nil || tainted[obj] {
						continue
					}
					if p.isUpperExpr(n.Values[i], tainted) {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// isUpperExpr reports whether e may evaluate to an upper-bound-tainted
// value: a configured source, a tainted local, a call whose summary
// returns upper, or tainted values flowing through preserving
// arithmetic (+, *, saturating helpers, max, conversions).
func (p *Pass) isUpperExpr(e ast.Expr, tainted map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[e]; obj != nil {
			return tainted[obj] || matchesQualified(qualifiedName(obj), p.Config.UpperSources)
		}
	case *ast.SelectorExpr:
		if obj := p.Info.Uses[e.Sel]; obj != nil {
			return matchesQualified(qualifiedName(obj), p.Config.UpperSources)
		}
	case *ast.CallExpr:
		// Type conversions preserve taint.
		if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return p.isUpperExpr(e.Args[0], tainted)
		}
		if id := p.calleeID(e); id != "" {
			if matchesQualified(id, p.Config.UpperSources) {
				return true
			}
			if fi := p.Prog.Func(id); fi != nil && fi.UpperResult {
				return true
			}
			if matchesQualified(id, upperPreserving) {
				return p.anyUpperArg(e, tainted)
			}
		}
		// Builtin max preserves; builtin min is the sink, never a
		// source here.
		if fn, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && fn.Name == "max" &&
			p.Info.Uses[fn] == types.Universe.Lookup("max") {
			return p.anyUpperArg(e, tainted)
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.MUL {
			return p.isUpperExpr(e.X, tainted) || p.isUpperExpr(e.Y, tainted)
		}
	}
	return false
}

func (p *Pass) anyUpperArg(call *ast.CallExpr, tainted map[types.Object]bool) bool {
	for _, a := range call.Args {
		if p.isUpperExpr(a, tainted) {
			return true
		}
	}
	return false
}

// returnsUpper reports whether fi returns an upper-tainted value on
// some return statement (used by the call-graph fixed point to make
// callers of bound producers sources themselves).
func returnsUpper(fi *FuncInfo) bool {
	p := fi.Pass
	if fi.Decl.Body == nil {
		return false
	}
	tainted := p.upperTaint(fi.Decl.Body)
	upper := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if upper {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if p.isUpperExpr(res, tainted) {
				upper = true
			}
		}
		return true
	})
	return upper
}

// checkSoundflowBody walks one function body reporting tightening
// operations on tainted values.
func (p *Pass) checkSoundflowBody(body *ast.BlockStmt, tainted map[types.Object]bool) {
	// parents maps each node to its enclosing expression so the
	// guard-idiom exemption (a subtraction used only inside a
	// comparison, e.g. `a > Infinity-b`) can look upward.
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			p.checkMinSink(n, tainted)
		case *ast.BinaryExpr:
			if n.Op != token.SUB || !p.isUpperExpr(n.X, tainted) {
				return true
			}
			// Guard idiom: `a > Infinity-b` computes headroom inside a
			// comparison and reports nothing — the canonical overflow
			// pre-check, not a tightened bound.
			if cmp, ok := parents[n].(*ast.BinaryExpr); ok && isComparison(cmp.Op) {
				return true
			}
			p.report(n, RuleSoundflow,
				"subtraction with upper-bound-tainted minuend %s tightens the bound; a reported value derived from it may undercut the exact result",
				types.ExprString(n.X))
		case *ast.IfStmt:
			p.checkClampDown(n, tainted)
		}
		return true
	})
}

// checkMinSink flags min(tainted, untainted): taking the minimum of an
// upper bound and an arbitrary value may select the arbitrary value,
// which nothing proves to be a sound bound. min over only-tainted
// operands is fine — the minimum of two upper bounds is an upper
// bound.
func (p *Pass) checkMinSink(call *ast.CallExpr, tainted map[types.Object]bool) {
	isMin := false
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fn.Name == "min" &&
		p.Info.Uses[fn] == types.Universe.Lookup("min") {
		isMin = true
	}
	if !isMin {
		if id := p.calleeID(call); !matchesQualified(id, []string{"internal/curves.MinTime"}) {
			return
		}
	}
	if len(call.Args) < 2 {
		return
	}
	upper, plain := 0, 0
	for _, a := range call.Args {
		if p.isUpperExpr(a, tainted) {
			upper++
		} else {
			plain++
		}
	}
	if upper > 0 && plain > 0 {
		p.report(call, RuleSoundflow,
			"min of an upper-bound-tainted value and an unproven operand may tighten the bound; prove the other operand is itself an upper bound or allowlist the dominance-tested caller")
	}
}

// checkClampDown flags `if bound > x { bound = x }` (and the >= / <
// mirror forms) on a tainted bound: the clamp replaces an upper bound
// with a smaller value nothing vouches for.
func (p *Pass) checkClampDown(n *ast.IfStmt, tainted map[types.Object]bool) {
	cond, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	var bound, limit ast.Expr
	switch cond.Op {
	case token.GTR, token.GEQ:
		bound, limit = cond.X, cond.Y
	case token.LSS, token.LEQ:
		bound, limit = cond.Y, cond.X
	default:
		return
	}
	boundID, ok := ast.Unparen(bound).(*ast.Ident)
	if !ok {
		return
	}
	obj := p.Info.Uses[boundID]
	if obj == nil || !tainted[obj] {
		return
	}
	if p.isUpperExpr(limit, tainted) {
		return // clamping one upper bound by another is sound
	}
	// The then-branch must re-assign the bound to the limit (alone).
	if len(n.Body.List) != 1 {
		return
	}
	as, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok || p.Info.Uses[lhs] != obj {
		return
	}
	if types.ExprString(as.Rhs[0]) != types.ExprString(limit) {
		return
	}
	p.report(n, RuleSoundflow,
		"clamp-down of upper-bound-tainted %q to an unproven limit tightens the bound; prove the limit is itself an upper bound or allowlist the dominance-tested caller", boundID.Name)
}

// isComparison reports whether op is a comparison operator.
func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

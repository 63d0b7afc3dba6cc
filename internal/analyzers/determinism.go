package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism guards the packages whose output is consumed as-is
// downstream (wire format golden files, cache keys, parallel/serial
// equivalence tests): iterating a map in them observes Go's randomized
// order, and a wall clock or the global math/rand source makes two
// runs of the same analysis disagree. Results must come from sorted
// keys and model time only.
//
// Two map-range idioms are recognized as deterministic and exempt:
//
//   - collecting the keys into a slice that the same function later
//     passes to a sort (or slices) call — the canonical
//     collect-sort-iterate fix;
//   - a loop body that only stores into another map index — writes
//     commute, so the iteration order cannot be observed.
var Determinism = &Analyzer{
	Name: RuleDeterminism,
	Doc:  "map iteration order, wall clocks and global randomness must not reach deterministic analysis output",
	Run:  runDeterminism,
}

// seededRandConstructors are the math/rand names that build an
// explicitly seeded, locally owned source; those are deterministic by
// construction and allowed.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(p *Pass) {
	if !p.pathMatches(p.Config.DeterministicPkgs) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					p.checkMapRanges(f, n.Body)
				}
			case *ast.SelectorExpr:
				p.checkNondeterministicCall(n)
			}
			return true
		})
	}
}

// checkMapRanges flags order-observing map ranges in one function
// body. Sorted-slice objects are collected per body so the
// collect-then-sort idiom stays exempt; nested function literals are
// scanned as part of their enclosing body (a sort call anywhere in the
// function counts).
func (p *Pass) checkMapRanges(f *ast.File, body *ast.BlockStmt) {
	sorted := p.sortedSliceObjects(body)
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !rangeObservesOrder(rng) {
			return true
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if p.isKeyCollect(rng, sorted) || p.isMapStore(rng) {
			return true
		}
		p.reportFix(rng, RuleDeterminism, p.collectSortFix(f, rng),
			"iteration over map %s observes randomized order in a deterministic package; range over sorted keys instead",
			types.ExprString(rng.X))
		return true
	})
}

// rangeObservesOrder reports whether the range statement can see the
// iteration order at all: `for range m` and `for _ = range m` only
// count elements, which is order-free.
func rangeObservesOrder(n *ast.RangeStmt) bool {
	return !isBlank(n.Key) || !isBlank(n.Value)
}

// isBlank reports whether e is absent or the blank identifier.
func isBlank(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// sortedSliceObjects returns the objects passed to a sort.* or
// slices.* call anywhere in body.
func (p *Pass) sortedSliceObjects(body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		if path := pkgName.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if argID, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := p.Info.Uses[argID]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isKeyCollect reports whether the range body is exactly
// `s = append(s, k)` for a slice s that the enclosing function sorts.
func (p *Pass) isKeyCollect(rng *ast.RangeStmt, sorted map[types.Object]bool) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || p.Info.Uses[fn] != types.Universe.Lookup("append") {
		return false
	}
	if len(call.Args) < 1 {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || p.Info.Uses[dst] != p.Info.Uses[lhs] {
		return false
	}
	return sorted[p.Info.Uses[lhs]]
}

// isMapStore reports whether the range body is a single assignment
// whose only effect is storing into a map index — an order-commuting
// write like `inv[v] = k` or `set[k] = struct{}{}`.
func (p *Pass) isMapStore(rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 {
		return false
	}
	idx, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := p.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// checkNondeterministicCall flags selectors into the time and
// math/rand packages that smuggle wall-clock time or shared global
// randomness into analysis results. Type names such as *rand.Rand only
// describe a source, so they are never reported.
func (p *Pass) checkNondeterministicCall(sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	if _, isType := p.Info.Uses[sel.Sel].(*types.TypeName); isType {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until" {
			p.report(sel, RuleDeterminism,
				"time.%s reads the wall clock in a deterministic package; results must depend on model time only",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[sel.Sel.Name] {
			p.report(sel, RuleDeterminism,
				"rand.%s uses the shared random source in a deterministic package; use an explicitly seeded rand.New(rand.NewSource(...))",
				sel.Sel.Name)
		}
	}
}

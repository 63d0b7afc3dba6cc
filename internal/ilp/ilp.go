// Package ilp implements a small exact solver for non-negative integer
// linear programs of the form
//
//	maximize   c·x
//	subject to A·x ≤ b,  x ∈ ℤ^n, x ≥ 0
//
// with c ≥ 0, A ≥ 0 and b ≥ 0 — the multidimensional-knapsack shape that
// Theorem 3 of the paper produces (variables are unschedulable
// combinations, rows are the Ω^a_b capacity constraints per active
// segment). The standard library has no LP/ILP facility, so this package
// provides a depth-first branch-and-bound maximizer combining a
// per-variable relaxation with a row-budget relaxation as its pruning
// bound. Realistic TWCA instances (tens of variables) solve exactly in
// microseconds; pathological symmetric instances (hundreds of
// interchangeable combinations) hit the Problem.MaxNodes cap, in which
// case Solution.Bound still carries a sound upper bound on the optimum
// (Exact reports which case occurred). The solver is deterministic and
// verified against brute-force enumeration and an independent dynamic
// program in the tests.
//
// TWCA asks the same program many times with only the row bounds
// changed (one capacity vector per k), so the solver is split in two:
// Compile does the bound-independent work once — validation, the
// unboundedness check, the branching order and the sparse column view —
// and returns an immutable Template; Template.Solve runs the search for
// one bound vector in caller-owned Scratch buffers and allocates only
// the returned assignment. Maximize is Compile followed by one Solve,
// so there is a single branch-and-bound path.
package ilp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/faultinject"
)

// ErrUnbounded is returned when some variable with positive objective
// coefficient has no finite cap from any constraint or variable bound.
var ErrUnbounded = errors.New("ilp: objective is unbounded")

// ErrInfeasible is returned when no assignment satisfies the
// constraints (with non-negative data this only happens through a
// negative right-hand side).
var ErrInfeasible = errors.New("ilp: problem is infeasible")

// Row is one constraint Σ_j Coeffs[j]·x_j ≤ Bound.
type Row struct {
	Coeffs []int64
	Bound  int64
}

// Problem is a non-negative integer linear program. VarBounds may be nil
// (no explicit per-variable bounds) or hold -1 entries for unbounded
// variables.
type Problem struct {
	Objective []int64
	Rows      []Row
	VarBounds []int64
	// MaxNodes caps the branch-and-bound search (0 = default 100000,
	// solving every realistically sized TWCA instance exactly in well
	// under a second). When the cap is hit, Maximize returns the best
	// solution found so far with Exact=false and Bound set to the root
	// relaxation — a sound upper bound on the true optimum.
	MaxNodes int64
}

// Solution is the result of Maximize.
type Solution struct {
	// X is the best assignment found, in the problem's variable order.
	X []int64
	// Value is the objective value c·X of that assignment. It is the
	// optimum when Exact is true.
	Value int64
	// Bound is a proven upper bound on the optimum: equal to Value when
	// Exact, the root relaxation otherwise. Soundness-critical callers
	// (TWCA's deadline miss models) must use Bound, not Value.
	Bound int64
	// Exact reports whether the search completed within MaxNodes.
	Exact bool
	// Nodes counts branch-and-bound nodes, for diagnostics and tests.
	Nodes int64
}

// validate checks the non-negativity restrictions and shape of p.
func (p *Problem) validate() error {
	n := len(p.Objective)
	for j, c := range p.Objective {
		if c < 0 {
			return fmt.Errorf("ilp: objective[%d] = %d is negative", j, c)
		}
	}
	for i, r := range p.Rows {
		if len(r.Coeffs) != n {
			return fmt.Errorf("ilp: row %d has %d coefficients, want %d", i, len(r.Coeffs), n)
		}
		for j, a := range r.Coeffs {
			if a < 0 {
				return fmt.Errorf("ilp: row %d coeff[%d] = %d is negative", i, j, a)
			}
		}
		if r.Bound < 0 {
			return fmt.Errorf("ilp: row %d bound %d: %w", i, r.Bound, ErrInfeasible)
		}
	}
	if p.VarBounds != nil && len(p.VarBounds) != n {
		return fmt.Errorf("ilp: %d variable bounds for %d variables", len(p.VarBounds), n)
	}
	return nil
}

// cap returns the largest feasible value of variable j given the
// remaining row budgets, or -1 if unbounded.
func (p *Problem) cap(j int, rem []int64) int64 {
	bound := int64(-1)
	if p.VarBounds != nil && p.VarBounds[j] >= 0 {
		bound = p.VarBounds[j]
	}
	for i, r := range p.Rows {
		if a := r.Coeffs[j]; a > 0 {
			c := rem[i] / a
			if bound < 0 || c < bound {
				bound = c
			}
		}
	}
	return bound
}

// cancelCheckEvery is how many branch-and-bound nodes are expanded
// between cooperative cancellation checks in Solve. Checking ctx.Err()
// costs an atomic load plus a mutex-free branch, so at this granularity
// the overhead is unmeasurable while cancellation latency stays in the
// microsecond range for realistic node rates.
const cancelCheckEvery = 4096

// Template is the bound-independent half of a Problem, compiled once by
// Compile: the validated objective, variable bounds and node cap, the
// decreasing-weight branching order, and the sparse column view of the
// coefficient matrix. Only the row bounds vary between solves — TWCA's
// Theorem 3 asks the same knapsack for every k with a new capacity
// vector — so Solve starts directly on the search. A Template is
// immutable and safe for concurrent use; each concurrent solve needs
// its own Scratch.
type Template struct {
	objective []int64
	varBounds []int64 // nil, or -1 for an unbounded variable
	rows      int
	maxNodes  int64
	order     []int     // branching order: decreasing objective weight
	covered   []bool    // per variable: some row constrains it
	varRows   [][]int32 // per variable: indices of rows with coeff > 0
	varCoeffs [][]int64 // per variable: the matching coefficients
}

// Scratch holds the work buffers of Template.Solve: the remaining row
// budgets and the current assignment. Solve reinitializes both, so one
// Scratch may serve any sequence of solves of any templates, but never
// two solves at once. The zero value is ready to use.
type Scratch struct {
	rem []int64
	x   []int64
}

// Compile validates p's shape and signs, rejects objectives that are
// unbounded for every bound vector, and precomputes the branching order
// and the sparse column view. The row bounds of p are not part of the
// template (Solve takes them); they are still validated, so Maximize
// reports errors exactly as a one-shot solver would. Objective and
// VarBounds are copied: later changes to p do not reach the template.
func Compile(p Problem) (*Template, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.Objective)
	maxNodes := p.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100_000
	}
	t := &Template{
		objective: append([]int64(nil), p.Objective...),
		rows:      len(p.Rows),
		maxNodes:  maxNodes,
		order:     make([]int, n),
		covered:   make([]bool, n),
		varRows:   make([][]int32, n),
		varCoeffs: make([][]int64, n),
	}
	if p.VarBounds != nil {
		t.varBounds = append([]int64(nil), p.VarBounds...)
	}
	// The sparse column view: per variable, the rows that constrain it
	// and their coefficients. TWCA's Theorem-3 matrices are 0/1 and
	// sparse, so iterating only the covering rows makes the per-node cap
	// and budget updates proportional to the column's support instead of
	// the full row count, and lets branching mutate the budget vector in
	// place (apply/undo) instead of copying it. All columns share one
	// backing array per kind.
	nnz := 0
	for _, r := range p.Rows {
		for _, a := range r.Coeffs {
			if a > 0 {
				nnz++
			}
		}
	}
	rowIdx, coeffs := make([]int32, 0, nnz), make([]int64, 0, nnz)
	for j := 0; j < n; j++ {
		lo := len(rowIdx)
		for i, r := range p.Rows {
			if r.Coeffs[j] > 0 {
				rowIdx = append(rowIdx, int32(i))
				coeffs = append(coeffs, r.Coeffs[j])
			}
		}
		t.varRows[j] = rowIdx[lo:len(rowIdx):len(rowIdx)]
		t.varCoeffs[j] = coeffs[lo:len(coeffs):len(coeffs)]
		t.covered[j] = len(rowIdx) > lo
	}
	// Unboundedness check: a variable with positive weight that no row
	// and no variable bound caps. Non-negative row bounds always cap a
	// covered variable, so the verdict does not depend on the bounds.
	for j, c := range t.objective {
		if c > 0 && !t.covered[j] && (t.varBounds == nil || t.varBounds[j] < 0) {
			return nil, fmt.Errorf("ilp: variable %d: %w", j, ErrUnbounded)
		}
	}
	// Branch in decreasing objective-weight order: good solutions first,
	// stronger pruning.
	for j := range t.order {
		t.order[j] = j
	}
	slices.SortStableFunc(t.order, func(a, b int) int {
		return cmp.Compare(t.objective[b], t.objective[a])
	})
	return t, nil
}

// Maximize solves the program exactly. The zero-variable program is
// trivially solved with value 0.
func Maximize(p Problem) (Solution, error) {
	return MaximizeCtx(context.Background(), p)
}

// MaximizeCtx is Maximize with cooperative cancellation: the
// branch-and-bound search polls ctx every few thousand nodes and, when
// the context is done, abandons the search and returns ctx's error
// (matching errors.Is(err, context.Canceled) or context.
// DeadlineExceeded). No partial solution is returned on cancellation —
// a truncated search without its relaxation bound would be unsound for
// the TWCA callers. It is Compile followed by one Solve.
func MaximizeCtx(ctx context.Context, p Problem) (Solution, error) {
	t, err := Compile(p)
	if err != nil {
		return Solution{}, err
	}
	bounds := make([]int64, len(p.Rows))
	for i, r := range p.Rows {
		bounds[i] = r.Bound
	}
	return t.Solve(ctx, nil, bounds)
}

// Solve maximizes the template's objective under the row bounds, one
// per row of the compiled problem, with the semantics of MaximizeCtx.
// sc supplies the work buffers (nil allocates fresh ones). bounds is
// not retained; the returned Solution.X is freshly allocated and owned
// by the caller.
func (t *Template) Solve(ctx context.Context, sc *Scratch, bounds []int64) (Solution, error) {
	if len(bounds) != t.rows {
		return Solution{}, fmt.Errorf("ilp: %d row bounds for %d rows", len(bounds), t.rows)
	}
	for i, b := range bounds {
		if b < 0 {
			return Solution{}, fmt.Errorf("ilp: row %d bound %d: %w", i, b, ErrInfeasible)
		}
	}
	if sc == nil {
		sc = &Scratch{}
	}
	n := len(t.objective)
	if cap(sc.x) < n {
		sc.x = make([]int64, n)
	}
	rem, x := append(sc.rem[:0], bounds...), sc.x[:n]
	clear(x)
	sc.rem = rem

	s := solver{Template: *t, best: -1, done: ctx.Done()}
	s.branch(0, 0, rem, x)
	if s.canceled {
		if s.injected != nil {
			return Solution{}, fmt.Errorf("ilp: search aborted after %d nodes: %w", s.nodes, s.injected)
		}
		return Solution{}, fmt.Errorf("ilp: search canceled after %d nodes: %w", s.nodes, ctx.Err())
	}

	sol := Solution{X: s.bestX, Value: s.best, Bound: s.best, Exact: !s.truncated, Nodes: s.nodes}
	if sol.Value < 0 {
		// Truncated before any incumbent (e.g. an injected budget fault
		// at the root): x = 0 is always feasible.
		sol.Value = 0
		sol.X = make([]int64, n)
	}
	if s.truncated {
		// branch restores rem on the way out, so this is the root
		// relaxation under bounds.
		sol.Bound = s.optimistic(0, rem)
		if sol.Bound < sol.Value {
			sol.Bound = sol.Value
		}
	}
	return sol, nil
}

// solver is the state of one branch-and-bound search over a Template.
// It embeds a copy of the template's header fields (slice headers, not
// their contents), so the per-node hot path reads them off the solver
// without a pointer hop.
type solver struct {
	Template
	best      int64
	bestX     []int64
	nodes     int64
	truncated bool
	done      <-chan struct{} // ctx.Done(); nil for context.Background()
	canceled  bool
	injected  error // error-action fault from the injection seam
}

// capOf returns the largest feasible value of variable j given the
// remaining row budgets, or -1 if unbounded — Problem.cap restricted to
// the sparse column view.
func (s *solver) capOf(j int, rem []int64) int64 {
	bound := int64(-1)
	if s.varBounds != nil && s.varBounds[j] >= 0 {
		bound = s.varBounds[j]
	}
	coeffs := s.varCoeffs[j]
	for k, i := range s.varRows[j] {
		c := rem[i] / coeffs[k]
		if bound < 0 || c < bound {
			bound = c
		}
	}
	return bound
}

// optimistic returns an upper bound on the objective achievable for the
// variables order[k:] under the remaining budgets. Two relaxations are
// combined:
//
//   - per-variable: every variable at its individual cap, ignoring
//     interactions (exact for disjoint rows);
//   - row budget: every unit of a row-covered variable consumes at
//     least one unit of some row, so their total count is at most
//     Σ_i rem_i — decisive when many near-symmetric variables share a
//     few capacity rows (the shape TWCA's Theorem 3 produces).
func (s *solver) optimistic(k int, rem []int64) int64 {
	var perVar int64
	var uncovered int64 // value of variables no row constrains
	var cmax int64
	for _, j := range s.order[k:] {
		c := s.objective[j]
		if c == 0 {
			continue
		}
		cap := s.capOf(j, rem)
		if cap < 0 {
			return math.MaxInt64 // unreachable after Compile's check
		}
		perVar += c * cap
		if s.covered[j] {
			if c > cmax {
				cmax = c
			}
		} else {
			uncovered += c * cap
		}
	}
	var rowBudget int64
	for _, r := range rem {
		rowBudget += r
	}
	byRows := uncovered
	if cmax > 0 {
		byRows += cmax * rowBudget
	}
	if byRows < perVar {
		return byRows
	}
	return perVar
}

func (s *solver) branch(k int, value int64, rem []int64, x []int64) {
	s.nodes++
	if s.canceled || s.nodes > s.maxNodes {
		s.truncated = true
		return
	}
	if s.nodes == 1 || s.nodes%cancelCheckEvery == 0 {
		// The fault-injection seam shares the cancellation cadence, plus
		// the root node so that small instances are injectable too. A
		// budget fault truncates the search exactly like the node cap
		// (the relaxation bound keeps the result sound), other actions
		// apply at the seam.
		if f := faultinject.At(faultinject.PointILPBranch); f != nil {
			if f.Budget() {
				s.truncated = true
				return
			}
			if err := f.Apply(); err != nil {
				s.canceled = true
				s.injected = err
				return
			}
		}
	}
	if s.done != nil && s.nodes%cancelCheckEvery == 0 {
		select {
		case <-s.done:
			s.canceled = true
			return
		default:
		}
	}
	if value > s.best {
		s.best = value
		s.bestX = append(s.bestX[:0], x...)
	}
	if k == len(s.order) {
		return
	}
	if value+s.optimistic(k, rem) <= s.best {
		return
	}
	j := s.order[k]
	cap := s.capOf(j, rem)
	if cap < 0 {
		// Unbounded variable with zero objective weight (Compile rejects
		// positive weights): raising it can only consume budget, so
		// pinning it to zero is optimal.
		cap = 0
	}
	// Every v ≤ cap is feasible by construction of capOf, so the budget
	// vector is updated in place on the sparse column and restored after
	// each child — no per-node allocation.
	rows, coeffs := s.varRows[j], s.varCoeffs[j]
	c := s.objective[j]
	for v := cap; v >= 0; v-- {
		for t, i := range rows {
			rem[i] -= coeffs[t] * v
		}
		x[j] = v
		s.branch(k+1, value+c*v, rem, x)
		x[j] = 0
		for t, i := range rows {
			rem[i] += coeffs[t] * v
		}
	}
}

// BruteForce solves the program by exhaustive enumeration. It is
// exponential and exists to cross-check Maximize in tests and for
// debugging small instances.
func BruteForce(p Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	rem := make([]int64, len(p.Rows))
	for i, r := range p.Rows {
		rem[i] = r.Bound
	}
	for j, c := range p.Objective {
		if c > 0 && p.cap(j, rem) < 0 {
			return Solution{}, fmt.Errorf("ilp: variable %d: %w", j, ErrUnbounded)
		}
	}
	n := len(p.Objective)
	x := make([]int64, n)
	best := Solution{X: make([]int64, n), Value: -1}
	var rec func(j int, value int64, rem []int64)
	rec = func(j int, value int64, rem []int64) {
		best.Nodes++
		if j == n {
			if value > best.Value {
				best.Value = value
				copy(best.X, x)
			}
			return
		}
		cap := p.cap(j, rem)
		if cap < 0 {
			cap = 0 // zero-weight unbounded variable: see Maximize
		}
		childRem := make([]int64, len(rem))
		for v := int64(0); v <= cap; v++ {
			ok := true
			for i, r := range p.Rows {
				childRem[i] = rem[i] - r.Coeffs[j]*v
				if childRem[i] < 0 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			x[j] = v
			rec(j+1, value+p.Objective[j]*v, append([]int64(nil), childRem...))
			x[j] = 0
		}
	}
	rec(0, 0, rem)
	best.Bound = best.Value
	best.Exact = true
	return best, nil
}

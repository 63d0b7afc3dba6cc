package twca

import (
	"context"

	"repro/internal/ilp"
)

// Internals the external memo tests (memo_test.go) drive directly.

// CapacityVector is Theorem 3's capacity vector for k.
func (a *Analysis) CapacityVector(k int64) []int64 { return a.boundsAt(nil, k) }

// SolveCold solves k's knapsack afresh, without the memo.
func (a *Analysis) SolveCold(ctx context.Context, k int64) (ilp.Solution, error) {
	return a.tmpl.Solve(ctx, nil, a.boundsAt(nil, k))
}

// RowUsage is the per-row capacity an assignment of the knapsack uses.
func (a *Analysis) RowUsage(x []int64) []int64 {
	usage := make([]int64, len(a.rows))
	for i, r := range a.rows {
		for j, v := range x {
			usage[i] += r.Coeffs[j] * v
		}
	}
	return usage
}

// MemoSolve is solveCached: bound, exactness and nodes spent for k.
func (a *Analysis) MemoSolve(ctx context.Context, k int64) (int64, bool, int64, error) {
	return a.solveCached(ctx, k)
}

// CapNodes recompiles the analysis's knapsack with a branch-and-bound
// node cap, so solves past it return their relaxation bound inexactly.
func (a *Analysis) CapNodes(maxNodes int64) error {
	objective := make([]int64, len(a.Unschedulable))
	for j := range objective {
		objective[j] = a.Latency.MissesPerWindow
	}
	tmpl, err := ilp.Compile(ilp.Problem{Objective: objective, Rows: a.rows, MaxNodes: maxNodes})
	a.tmpl = tmpl
	return err
}

// HasTemplate reports whether dmm(k) queries can reach the knapsack.
func (a *Analysis) HasTemplate() bool { return a.tmpl != nil }

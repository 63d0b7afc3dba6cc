package ilp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultinject"
)

// randomKnapsack builds a random non-negative multidimensional knapsack
// in the 0/1-coefficient shape TWCA's Theorem 3 produces.
func randomKnapsack(rng *rand.Rand) Problem {
	n := 2 + rng.Intn(6)
	rows := 1 + rng.Intn(4)
	p := Problem{Objective: make([]int64, n), Rows: make([]Row, rows)}
	for j := range p.Objective {
		p.Objective[j] = int64(rng.Intn(5))
	}
	for i := range p.Rows {
		p.Rows[i].Coeffs = make([]int64, n)
		for j := range p.Rows[i].Coeffs {
			p.Rows[i].Coeffs[j] = int64(rng.Intn(2))
		}
		p.Rows[i].Bound = int64(rng.Intn(8))
	}
	// Cap every variable so zero-coefficient columns stay bounded.
	p.VarBounds = make([]int64, n)
	for j := range p.VarBounds {
		p.VarBounds[j] = int64(1 + rng.Intn(6))
	}
	return p
}

// withBounds returns p with its row bounds replaced by bounds.
func withBounds(p Problem, bounds []int64) Problem {
	p.Rows = slices.Clone(p.Rows)
	for i := range p.Rows {
		p.Rows[i].Bound = bounds[i]
	}
	return p
}

// checkAgainstOptimum checks one solve against the true optimum: an
// exact result must equal it with Bound == Value; a truncated one must
// bracket it (Value ≤ optimum ≤ Bound). The assignment must be feasible.
func checkAgainstOptimum(t *testing.T, what string, p Problem, got Solution, optimum int64) {
	t.Helper()
	checkFeasible(t, p, got)
	if got.Exact {
		if got.Value != optimum || got.Bound != got.Value {
			t.Fatalf("%s: exact solve value=%d bound=%d, optimum %d", what, got.Value, got.Bound, optimum)
		}
		return
	}
	if got.Value > optimum || got.Bound < optimum {
		t.Fatalf("%s: truncated solve value=%d bound=%d does not bracket optimum %d", what, got.Value, got.Bound, optimum)
	}
}

// sameSolution reports whether two solves agree in every field.
func sameSolution(a, b Solution) bool {
	return a.Value == b.Value && a.Bound == b.Bound && a.Exact == b.Exact &&
		a.Nodes == b.Nodes && slices.Equal(a.X, b.X)
}

// nextBounds moves a capacity vector one step of a random walk: grow,
// shrink, or drop to zero, rowwise or all at once.
func nextBounds(rng *rand.Rand, cur []int64) []int64 {
	next := slices.Clone(cur)
	switch rng.Intn(4) {
	case 0: // grow
		for i := range next {
			next[i] += int64(rng.Intn(4))
		}
	case 1: // shrink
		for i := range next {
			next[i] -= min(next[i], int64(rng.Intn(4)))
		}
	case 2: // zero one row, or all of them
		if rng.Intn(2) == 0 {
			clear(next)
		} else {
			next[rng.Intn(len(next))] = 0
		}
	default: // fresh draw
		for i := range next {
			next[i] = int64(rng.Intn(10))
		}
	}
	return next
}

// TestTemplateReuseDifferential solves compiled templates again and
// again through ONE Scratch — across bound sequences that grow, shrink
// and hit zero, across templates of different shapes, and under
// MaxNodes truncation — and checks
// every solve against fresh references: BruteForce's optimum (and
// MaximizeDP's on single-row instances), and a one-shot Maximize of the
// same problem, which must agree field for field. Any state leaking
// from one solve into the next fails it.
func TestTemplateReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	var sc Scratch
	for trial := 0; trial < 150; trial++ {
		p := randomKnapsack(rng)
		trunc := p
		trunc.MaxNodes = 1 + rng.Int63n(12)
		tmpls := make([]*Template, 2)
		for i, q := range []Problem{p, trunc} {
			var err error
			if tmpls[i], err = Compile(q); err != nil {
				t.Fatalf("trial %d: compile: %v", trial, err)
			}
		}
		bounds := make([]int64, len(p.Rows))
		for step := 0; step < 10; step++ {
			bounds = nextBounds(rng, bounds)
			bp := withBounds(p, bounds)
			want, err := BruteForce(bp)
			if err != nil {
				t.Fatalf("trial %d step %d: brute force: %v", trial, step, err)
			}
			if len(bp.Rows) == 1 {
				dp, err := MaximizeDP(bp)
				if err != nil || dp.Value != want.Value {
					t.Fatalf("trial %d step %d: DP %d (%v) != brute force %d", trial, step, dp.Value, err, want.Value)
				}
			}
			which := rng.Intn(2)
			ref := bp
			ref.MaxNodes = []int64{p.MaxNodes, trunc.MaxNodes}[which]
			fresh, err := Maximize(ref)
			if err != nil {
				t.Fatalf("trial %d step %d: fresh solve: %v", trial, step, err)
			}
			got, err := tmpls[which].Solve(ctx, &sc, bounds)
			if err != nil {
				t.Fatalf("trial %d step %d: reused solve: %v", trial, step, err)
			}
			if !sameSolution(got, fresh) {
				t.Fatalf("trial %d step %d (bounds %v, maxNodes %d): reused scratch %+v != fresh %+v",
					trial, step, bounds, ref.MaxNodes, got, fresh)
			}
			checkAgainstOptimum(t, "reused", bp, got, want.Value)
		}
	}
}

// TestTemplateLargeSingleVariable: single-variable instances whose cap
// is at least 10⁵ — the shape of σc's Theorem-3 knapsack at large k —
// solved through a reused Scratch after a larger multi-row template has
// used it. A cap past the default node budget truncates the search; the
// relaxation bound must still cover the optimum.
func TestTemplateLargeSingleVariable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	var sc Scratch
	warmup := randomKnapsack(rng)
	wt, err := Compile(warmup)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		rows := 1 + rng.Intn(2)
		p := Problem{Objective: []int64{1 + int64(rng.Intn(4))}}
		bounds := make([]int64, rows)
		for i := range bounds {
			a := 1 + int64(rng.Intn(2))
			p.Rows = append(p.Rows, Row{Coeffs: []int64{a}})
			bounds[i] = a * (100_000 + int64(rng.Intn(50_000)))
		}
		tmpl, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the scratch with a different template first.
		dirty := make([]int64, len(warmup.Rows))
		for i := range dirty {
			dirty[i] = 7
		}
		if _, err := wt.Solve(ctx, &sc, dirty); err != nil {
			t.Fatal(err)
		}
		bp := withBounds(p, bounds)
		want, err := BruteForce(bp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tmpl.Solve(ctx, &sc, bounds)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOptimum(t, "single variable", bp, got, want.Value)
		if fresh, err := Maximize(bp); err != nil || !sameSolution(got, fresh) {
			t.Fatalf("trial %d: reused %+v != fresh %+v (%v)", trial, got, fresh, err)
		}
	}
}

// TestTemplateSolveRejectsBadBounds: the bound vector is validated per
// solve — wrong length is an error, a negative bound is infeasible.
func TestTemplateSolveRejectsBadBounds(t *testing.T) {
	tmpl, err := Compile(Problem{Objective: []int64{1}, Rows: []Row{{Coeffs: []int64{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Solve(context.Background(), nil, []int64{1, 2}); err == nil {
		t.Error("two bounds for one row accepted")
	}
	if _, err := tmpl.Solve(context.Background(), nil, []int64{-1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative bound: err = %v, want ErrInfeasible", err)
	}
}

// TestInjectedBranchFaultOnTemplate arms the branch-loop seam against a
// reused Scratch: a budget fault truncates to a sound bound, an error
// fault surfaces as an error, and the next unarmed solve on the same
// Scratch equals a fresh one-shot solve.
func TestInjectedBranchFaultOnTemplate(t *testing.T) {
	defer faultinject.Disarm()
	p := Problem{
		Objective: []int64{3, 2, 2, 1},
		Rows: []Row{
			{Coeffs: []int64{1, 1, 0, 1}, Bound: 5},
			{Coeffs: []int64{1, 0, 1, 1}, Bound: 4},
		},
	}
	want, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{5, 4}
	ctx := context.Background()
	var sc Scratch

	if err := faultinject.Configure([]faultinject.Rule{{Point: faultinject.PointILPBranch, Action: faultinject.ActionBudget}}); err != nil {
		t.Fatal(err)
	}
	got, err := tmpl.Solve(ctx, &sc, bounds)
	if err != nil {
		t.Fatalf("budget fault: %v", err)
	}
	if got.Exact {
		t.Fatal("budget fault left the solve exact")
	}
	checkAgainstOptimum(t, "budget fault", p, got, want.Value)

	if err := faultinject.Configure([]faultinject.Rule{{Point: faultinject.PointILPBranch, Action: faultinject.ActionError}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Solve(ctx, &sc, bounds); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error fault: err = %v, want ErrInjected", err)
	}

	faultinject.Disarm()
	got, err = tmpl.Solve(ctx, &sc, bounds)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Maximize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(got, fresh) || !got.Exact || got.Value != want.Value {
		t.Fatalf("post-fault solve %+v != fresh %+v (optimum %d)", got, fresh, want.Value)
	}
}

// TestInjectedPanicMidSearchLeavesScratchUsable: a panic at the seam's
// node-4096 check unwinds the search with the Scratch mid-branch (a
// nonzero assignment, spent budgets). The next solve through the same
// Scratch must not see any of it.
func TestInjectedPanicMidSearchLeavesScratchUsable(t *testing.T) {
	defer faultinject.Disarm()
	// x0 branches first (heavier); the panic hits while x1 is mid-loop.
	p := Problem{Objective: []int64{2, 1}, Rows: []Row{
		{Coeffs: []int64{1, 0}},
		{Coeffs: []int64{0, 1}},
	}}
	tmpl, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	// The seam's first arrival is the root; the second is node 4096.
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionPanic, Every: 2, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("armed panic did not fire")
			}
		}()
		_, _ = tmpl.Solve(context.Background(), &sc, []int64{1, 10_000})
	}()
	faultinject.Disarm()
	// x1 cannot move under these bounds, so its stale value would
	// survive into the returned assignment.
	small := []int64{1, 0}
	got, err := tmpl.Solve(context.Background(), &sc, small)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Maximize(withBounds(p, small))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(got, fresh) {
		t.Fatalf("post-panic solve %+v != fresh %+v", got, fresh)
	}
}

package twca

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/ilp"
	"repro/internal/model"
)

// sigmaC analyzes the case study's σc under opts.
func sigmaC(t *testing.T, sys *model.System, opts Options) *Analysis {
	t.Helper()
	a, err := NewCtx(context.Background(), sys, sys.ChainByName("sigma_c"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTheorem3SigmaCSolvePin pins the work of σc's Theorem-3 knapsack
// at k = 160,000, the top of the cold-sweep range: one variable under
// two capacity rows, optimum 45,716, and a search that visits every
// child of the root — 45,718 nodes. Node counts do not depend on the
// host, so this is the gate any branch-and-bound pruning change must
// move deliberately.
func TestTheorem3SigmaCSolvePin(t *testing.T) {
	a := sigmaC(t, casestudy.New(), Options{NoCache: true})
	const k = 160_000
	sol, err := a.tmpl.Solve(context.Background(), nil, a.boundsAt(nil, k))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 45_716 || sol.Bound != 45_716 || !sol.Exact || sol.Nodes != 45_718 {
		t.Fatalf("σc knapsack at k=%d: value=%d bound=%d exact=%v nodes=%d, want 45716/45716/true/45718",
			k, sol.Value, sol.Bound, sol.Exact, sol.Nodes)
	}
	r, err := a.DMMValueCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != sol.Value || r.ILPNodes != sol.Nodes {
		t.Fatalf("dmm(%d) = %d with %d nodes, want the pinned solve's %d with %d", k, r.Value, r.ILPNodes, sol.Value, sol.Nodes)
	}
}

// TestConcurrentDMMQueries runs many goroutines against the same
// analyses: memoized and Options.NoCache ones, among them independent
// analyses of the same system. Every DMMCtx and DMMValueCtx answer must
// equal a serial reference; under -race, a scratch kept on the template
// or used outside a.mu is a reported race.
func TestConcurrentDMMQueries(t *testing.T) {
	sys := casestudy.New()
	ctx := context.Background()
	var ks []int64
	for k := int64(1); k <= 40; k++ {
		ks = append(ks, k)
	}
	ks = append(ks, 100, 250, 1000, 4000, 16_000)
	ref := sigmaC(t, sys, Options{NoCache: true})
	want := make(map[int64]DMMResult, len(ks))
	for _, k := range ks {
		r, err := ref.DMMCtx(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = r
	}

	analyses := []*Analysis{sigmaC(t, sys, Options{NoCache: true})}
	for range 4 {
		analyses = append(analyses, sigmaC(t, sys, Options{}))
	}

	const perAnalysis = 4
	var wg sync.WaitGroup
	for ai, a := range analyses {
		for g := 0; g < perAnalysis; g++ {
			wg.Add(1)
			go func(ai, g int, a *Analysis) {
				defer wg.Done()
				for i := range ks {
					k := ks[(i+g*len(ks)/perAnalysis)%len(ks)]
					w := want[k]
					var r DMMResult
					var err error
					if (i+g)%2 == 0 {
						r, err = a.DMMCtx(ctx, k)
					} else {
						r, err = a.DMMValueCtx(ctx, k)
					}
					if err != nil {
						t.Errorf("analysis %d goroutine %d: dmm(%d): %v", ai, g, k, err)
						return
					}
					if r.Value != w.Value || r.Exact != w.Exact || r.Quality != w.Quality || r.Trivial != w.Trivial {
						t.Errorf("analysis %d goroutine %d: dmm(%d) = %+v, want %+v", ai, g, k, r, w)
					}
					if r.Omega != nil && !slices.Equal(r.Omega, w.Omega) {
						t.Errorf("analysis %d: dmm(%d) Omega %v, want %v", ai, k, r.Omega, w.Omega)
					}
					if (r.Omega == nil) != ((i+g)%2 == 1) {
						t.Errorf("analysis %d: dmm(%d): Omega present=%v from the wrong query", ai, k, r.Omega != nil)
					}
					if a.opts.NoCache && r.ILPNodes != w.ILPNodes {
						t.Errorf("analysis %d: uncached dmm(%d) took %d nodes, reference %d", ai, k, r.ILPNodes, w.ILPNodes)
					}
				}
			}(ai, g, a)
		}
	}
	wg.Wait()
}

// TestInjectedILPFaultOnCompiledTemplate drives the ILP fault seam
// through a memoized analysis's compiled template and scratch: a budget
// fault yields a degraded answer that still dominates the exact one, an
// error fault surfaces as an error (no Degrade.Allow), and once
// disarmed the same analysis answers exactly like a fresh one — the
// aborted solves left nothing behind in its scratch.
func TestInjectedILPFaultOnCompiledTemplate(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	sys := casestudy.New()
	ctx := context.Background()
	exact, err := sigmaC(t, sys, Options{}).DMMValueCtx(ctx, 5000)
	if err != nil {
		t.Fatal(err)
	}
	an := sigmaC(t, sys, Options{})

	if err := faultinject.Configure([]faultinject.Rule{{Point: faultinject.PointILPBranch, Action: faultinject.ActionBudget}}); err != nil {
		t.Fatal(err)
	}
	r, err := an.DMMCtx(ctx, 5000)
	if err != nil {
		t.Fatalf("budget fault: %v", err)
	}
	if !r.Quality.Degraded() || r.Exact {
		t.Fatalf("budget fault: dmm(5000) = %+v, want a degraded result", r)
	}
	if r.Value < exact.Value {
		t.Fatalf("budget fault: degraded dmm(5000) = %d < exact %d", r.Value, exact.Value)
	}

	if err := faultinject.Configure([]faultinject.Rule{{Point: faultinject.PointILPBranch, Action: faultinject.ActionError}}); err != nil {
		t.Fatal(err)
	}
	for _, query := range []func(context.Context, int64) (DMMResult, error){an.DMMCtx, an.DMMValueCtx} {
		if _, err := query(ctx, 7000); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("error fault: err = %v, want ErrInjected", err)
		}
	}

	faultinject.Disarm()
	fresh := sigmaC(t, sys, Options{})
	for _, k := range []int64{7000, 9000, 3} {
		got, err := an.DMMCtx(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		w, err := fresh.DMMCtx(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != w.Value || got.Exact != w.Exact || got.Quality != w.Quality {
			t.Fatalf("post-fault dmm(%d) = %+v, fresh analysis %+v", k, got, w)
		}
		if again, err := an.DMMCtx(ctx, k); err != nil || again.ILPNodes != 0 {
			t.Fatalf("repeated post-fault dmm(%d) = %+v (%v), want a memo hit with 0 nodes", k, again, err)
		}
	}
}

// TestMemoCappedEntryPrecedence pins the memo's lookup order once it
// holds a node-capped entry: a k whose capacity vector the capped entry
// was solved under gets that entry's answer, even when a recorded k-range
// of an exact answer spans k. The state is staged directly: it needs an
// exact search to finish under larger capacities where a node-capped one
// at smaller capacities did not.
func TestMemoCappedEntryPrecedence(t *testing.T) {
	a := sigmaC(t, casestudy.New(), Options{})
	// k = 3 and k = 5 share σc's capacity vector [3 3].
	a.cache = []dmmCacheEntry{
		{bounds: a.boundsAt(nil, 3), sol: ilp.Solution{Value: 3, Bound: 4}, usage: []int64{3, 3}},
		{bounds: a.boundsAt(nil, 40), sol: ilp.Solution{Value: 3, Bound: 3, Exact: true}, usage: []int64{3, 3}},
	}
	a.spans = []kSpan{{lo: 1, hi: 40, bound: 3}}
	a.inexact = true
	r, err := a.DMMValueCtx(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 4 || r.Exact || r.Quality.Budget != degrade.BudgetILPNodes || r.ILPNodes != 0 {
		t.Fatalf("dmm(5) = %+v, want the capped entry's bound 4, inexact, from the memo", r)
	}
}

package twca_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/gen"
	"repro/internal/latency"
	"repro/internal/twca"
)

// knapsackChains returns analyses whose dmm(k) reaches a Theorem-3
// knapsack with several variables: the case study's σc and generated
// chains (fixed seed) that are typically schedulable. Each comes with
// a NoCache twin built from the same system.
func knapsackChains(t *testing.T, n int) (memo, fresh []*twca.Analysis) {
	t.Helper()
	add := func(build func(opts twca.Options) (*twca.Analysis, error)) {
		m, err := build(twca.Options{Latency: latency.Options{MaxQ: 256, Horizon: 1 << 24}})
		if err != nil {
			t.Fatal(err)
		}
		f, err := build(twca.Options{Latency: latency.Options{MaxQ: 256, Horizon: 1 << 24}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		memo, fresh = append(memo, m), append(fresh, f)
	}
	sys := casestudy.New()
	add(func(opts twca.Options) (*twca.Analysis, error) {
		return twca.New(sys, sys.ChainByName("sigma_c"), opts)
	})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400 && len(memo) < n; trial++ {
		sys, err := gen.Random(rng, gen.Params{Chains: 3, OverloadChains: 2, Utilization: 0.5 + 0.2*rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sys.RegularChains() {
			if c.Deadline == 0 {
				continue
			}
			a, err := twca.New(sys, c, twca.Options{Latency: latency.Options{MaxQ: 256, Horizon: 1 << 24}})
			if err != nil || !a.HasTemplate() || len(a.Unschedulable) < 2 {
				continue
			}
			add(func(opts twca.Options) (*twca.Analysis, error) { return twca.New(sys, c, opts) })
		}
	}
	if len(memo) < n {
		t.Fatalf("found %d knapsack chains, want %d", len(memo), n)
	}
	return memo, fresh
}

// TestMemoHitReportsNoNodes: a dmm(k) answered by the memo explored no
// branch-and-bound nodes and reports 0, whether k was asked before or
// is answered by another k's solve; the answer itself is unchanged.
func TestMemoHitReportsNoNodes(t *testing.T) {
	sys := casestudy.New()
	ctx := context.Background()
	a, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.DMMValueCtx(ctx, 160_000)
	if err != nil {
		t.Fatal(err)
	}
	if first.ILPNodes != 45_718 {
		t.Fatalf("first dmm(160000) reports %d nodes, want the solve's 45718", first.ILPNodes)
	}
	for _, query := range []func(context.Context, int64) (twca.DMMResult, error){a.DMMValueCtx, a.DMMCtx} {
		again, err := query(ctx, 160_000)
		if err != nil {
			t.Fatal(err)
		}
		if again.ILPNodes != 0 || again.Value != first.Value || again.Exact != first.Exact || again.Quality != first.Quality {
			t.Errorf("repeated dmm(160000) = %+v, want %+v with 0 nodes", again, first)
		}
	}
	// k = 5 shares k = 3's capacity vector: answered without a solve.
	if _, err := a.DMMValueCtx(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if r, err := a.DMMValueCtx(ctx, 5); err != nil || r.ILPNodes != 0 || r.Value != 3 {
		t.Errorf("dmm(5) after dmm(3) = %+v (%v), want value 3 from the memo with 0 nodes", r, err)
	}
}

// TestMemoEquivalenceInterleaved has goroutines query shared memoized
// analyses with interleaved k orders — ascending, descending, k's
// sharing one capacity vector, and the largest k first so smaller ones
// are answered by dominance. Every answer must equal the NoCache
// analysis's, a memoized answer reports either the fresh solve's nodes
// or 0, and no capacity vector is solved twice. Run under -race this
// also checks the read-locked k-interval scan against concurrent
// solves.
func TestMemoEquivalenceInterleaved(t *testing.T) {
	ctx := context.Background()
	memo, fresh := knapsackChains(t, 5)
	for i, a := range memo {
		var ks []int64
		for k := int64(1); k <= 60; k++ {
			ks = append(ks, k)
		}
		ks = append(ks, 100, 250, 1000)
		want := make(map[int64]twca.DMMResult, len(ks))
		vectors := make(map[string][]int64)
		for _, k := range ks {
			r, err := fresh[i].DMMValueCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Exact {
				t.Fatalf("chain %d: dmm(%d) is node-capped; the equivalence needs exact solves", i, k)
			}
			want[k] = r
			key := fmt.Sprint(a.CapacityVector(k))
			vectors[key] = append(vectors[key], k)
		}
		desc := slices.Clone(ks)
		slices.Reverse(desc)
		var shared []int64
		for _, k := range ks {
			shared = append(shared, vectors[fmt.Sprint(a.CapacityVector(k))]...)
		}
		orders := [][]int64{ks, desc, shared, append([]int64{ks[len(ks)-1]}, ks...)}

		var wg sync.WaitGroup
		var mu sync.Mutex
		solves := 0
		for g := 0; g < 2*len(orders); g++ {
			wg.Add(1)
			go func(order []int64) {
				defer wg.Done()
				for _, k := range order {
					r, err := a.DMMValueCtx(ctx, k)
					if err != nil {
						t.Errorf("chain %d: dmm(%d): %v", i, k, err)
						return
					}
					w := want[k]
					if r.Value != w.Value || r.Exact != w.Exact || r.Quality != w.Quality || r.Trivial != w.Trivial {
						t.Errorf("chain %d: memo dmm(%d) = %+v, NoCache %+v", i, k, r, w)
					}
					if r.ILPNodes != 0 && r.ILPNodes != w.ILPNodes {
						t.Errorf("chain %d: memo dmm(%d) reports %d nodes, want 0 or the fresh solve's %d", i, k, r.ILPNodes, w.ILPNodes)
					}
					if r.ILPNodes != 0 {
						mu.Lock()
						solves++
						mu.Unlock()
					}
				}
			}(orders[g%len(orders)])
		}
		wg.Wait()
		if solves > len(vectors) {
			t.Errorf("chain %d: %d solves for %d distinct capacity vectors", i, solves, len(vectors))
		}
	}
}

// TestMemoNodeCappedPrecedence pins the memo against a reference model
// of its documented lookup order once node-capped solves are memoized:
// the entry solved under the query's own capacity vector answers
// first, then the first exact entry that dominates it, else a fresh
// solve. The knapsacks are capped at a few dozen nodes so large k's
// truncate while small ones stay exact; every answer — bound,
// exactness, nodes — must match the model over ascending, descending
// and shuffled k orders.
func TestMemoNodeCappedPrecedence(t *testing.T) {
	ctx := context.Background()
	memo, _ := knapsackChains(t, 5)
	ks := []int64{1, 2, 3, 5, 8, 13, 20, 25, 40, 76, 100, 250, 1000, 4000}
	desc := slices.Clone(ks)
	slices.Reverse(desc)
	shuffled := slices.Clone(ks)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	capped, exact := 0, 0
	for i := range memo {
		for oi, order := range [][]int64{ks, desc, shuffled} {
			// A fresh analysis per order: the memo's history is the point.
			a := rebuild(t, memo[i])
			if err := a.CapNodes(30); err != nil {
				t.Fatal(err)
			}
			var model refMemo
			for round := 0; round < 2; round++ {
				for _, k := range order {
					wantBound, wantExact, wantNodes := model.answer(t, a, k)
					bound, ex, nodes, err := a.MemoSolve(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					if bound != wantBound || ex != wantExact || nodes != wantNodes {
						t.Errorf("chain %d order %d k=%d: memo (bound %d, exact %v, %d nodes), model (%d, %v, %d)",
							i, oi, k, bound, ex, nodes, wantBound, wantExact, wantNodes)
					}
					if ex {
						exact++
					} else {
						capped++
					}
				}
			}
		}
	}
	if capped == 0 || exact == 0 {
		t.Fatalf("%d capped and %d exact answers: the cap no longer splits the k range", capped, exact)
	}
}

// rebuild analyzes a's chain afresh under the same system.
func rebuild(t *testing.T, a *twca.Analysis) *twca.Analysis {
	t.Helper()
	b, err := twca.New(a.Sys, a.Target, twca.Options{Latency: latency.Options{MaxQ: 256, Horizon: 1 << 24}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refMemo is the reference model of the dmm(k) memo: a list of solves,
// searched for an equal capacity vector first, then for the first
// exact solve that dominates the vector with room for its assignment.
type refMemo struct {
	entries []refEntry
}

type refEntry struct {
	bounds, usage []int64
	bound         int64
	exact         bool
}

func (m *refMemo) answer(t *testing.T, a *twca.Analysis, k int64) (int64, bool, int64) {
	t.Helper()
	b := a.CapacityVector(k)
	for _, e := range m.entries {
		if slices.Equal(e.bounds, b) {
			return e.bound, e.exact, 0
		}
	}
	for _, e := range m.entries {
		if !e.exact {
			continue
		}
		dominates := true
		for r := range b {
			dominates = dominates && e.bounds[r] >= b[r] && e.usage[r] <= b[r]
		}
		if dominates {
			return e.bound, e.exact, 0
		}
	}
	sol, err := a.SolveCold(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	m.entries = append(m.entries, refEntry{bounds: b, usage: a.RowUsage(sol.X), bound: sol.Bound, exact: sol.Exact})
	return sol.Bound, sol.Exact, sol.Nodes
}

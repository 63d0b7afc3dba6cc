package sensitivity

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

// genQuery is one sensitivity query over a generated system.
type genQuery struct {
	sys   *model.System
	chain string
	opts  Options
}

// genPopulation draws n internal/gen systems from seed: four regular
// chains of 2–6 tasks at a total utilization in [0.55, 0.85), and two
// overload chains, so every query probes the scale, jitter and distance
// axes. Each system is queried on the regular chain with the largest
// exact dmm(10) below 10 (the first such chain on ties), with that dmm
// as m (so the constraint holds on the nominal system), per-task slack
// for the chain's own tasks and the frontier to k = 10. Systems without
// such a chain are skipped. Overload chains carry a total WCET of 40, so
// about a third of the queries have m > 0 and reach the knapsack.
func genPopulation(tb testing.TB, seed int64, n int) []genQuery {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []genQuery
	for draws := 0; len(out) < n; draws++ {
		if draws >= 20*n {
			tb.Fatalf("seed %d: only %d of %d systems have a chain with dmm(10) < 10", seed, len(out), n)
		}
		sys, err := gen.Random(rng, gen.Params{
			Chains: 4, OverloadChains: 2, MinTasks: 2, MaxTasks: 6,
			Utilization: 0.55 + 0.3*rng.Float64(), OverloadWCET: 40,
		})
		if err != nil {
			tb.Fatal(err)
		}
		var best *model.Chain
		m := int64(-1)
		for _, c := range sys.Chains {
			if c.Overload {
				continue
			}
			// A chain with hundreds of unschedulable combinations poses a
			// knapsack whose dmm(10) runs into the ILP node cap for about
			// a second; skip it so that does not dominate the set-up.
			an, err := twca.New(sys, c, twca.Options{})
			if err != nil || len(an.Unschedulable) > 64 {
				continue
			}
			if r, err := an.DMM(10); err == nil && r.Value < 10 && r.Value > m {
				best, m = c, r.Value
			}
		}
		if best == nil {
			continue
		}
		var tasks []string
		for _, t := range best.Tasks {
			tasks = append(tasks, t.Name)
		}
		out = append(out, genQuery{sys: sys, chain: best.Name, opts: Options{
			Constraint:   weaklyhard.Constraint{M: m, K: 10},
			FrontierMaxK: 10,
			Tasks:        tasks,
		}})
	}
	return out
}

// TestGenSweepByteIdentical is TestWarmSweepByteIdentical on generated
// systems: for each query of a fixed-seed population and for 1 and 4
// workers, the cold run (NoWarmStart), the run against an empty shared
// store and the repeat against the then hot store serialize to the same
// bytes, Probes and Analyses included.
func TestGenSweepByteIdentical(t *testing.T) {
	ctx := context.Background()
	for i, q := range genPopulation(t, 31, 6) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("sys%d/%s/workers=%d", i, q.chain, workers), func(t *testing.T) {
				opts := q.opts
				opts.Tasks = opts.Tasks[:min(2, len(opts.Tasks))] // keeps -race runs short
				opts.Workers = workers
				coldOpts := opts
				coldOpts.NoWarmStart = true
				cold, err := Engine{}.Query(ctx, q.sys, q.chain, twca.Options{}, coldOpts)
				if err != nil {
					t.Fatal(err)
				}
				want := marshalResult(t, cold)
				store := NewWarmStore()
				eng := Engine{Warm: store}
				for _, run := range []string{"empty store", "hot store"} {
					res, err := eng.Query(ctx, q.sys, q.chain, twca.Options{}, opts)
					if err != nil {
						t.Fatalf("%s: %v", run, err)
					}
					if got := marshalResult(t, res); !bytes.Equal(got, want) {
						t.Errorf("%s differs from cold:\ngot:  %s\ncold: %s", run, got, want)
					}
				}
				if st := store.Stats(); st.Hits == 0 {
					t.Errorf("hot repeat recorded no warm hits (stats %+v)", st)
				}
			})
		}
	}
}

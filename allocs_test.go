package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/sim"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

// TestAllocCeilings gates the pipeline's benchmarked entry points on
// allocations per call (testing.AllocsPerRun), which, unlike ns/op, do
// not depend on the host; Figure 5's worker count is pinned to 1. Each
// ceiling leaves about 25% headroom over the count measured on go1.24
// linux/amd64 for toolchain and stdlib drift. The comments give the
// measured counts, with -race in parentheses where it differs.
func TestAllocCeilings(t *testing.T) {
	sys := repro.CaseStudy()
	warm, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.DMM(250); err != nil {
		t.Fatal(err)
	}
	mapping := threeWayMapping(sys)
	// The cold-sweep shape: 80 log-spaced k in [2, 1.6e5].
	var sweep []int64
	for i := 0; i < 80; i++ {
		sweep = append(sweep, int64(math.Round(2*math.Pow(80_000, float64(i)/79))))
	}
	// A Theorem-3-shaped knapsack (0/1 columns over two capacity rows),
	// compiled once and solved through one reused scratch.
	tmpl, err := ilp.Compile(ilp.Problem{
		Objective: []int64{1, 1, 1},
		Rows: []ilp.Row{
			{Coeffs: []int64{1, 0, 1}},
			{Coeffs: []int64{0, 1, 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var scratch ilp.Scratch
	capacities := [][]int64{{40, 25}, {12, 60}}
	solves := 0
	// The sensitivity-sweep query shape on σc, against a shared warm
	// store warmed by one query, repeated on the store's retained nominal
	// system as the service runs it. Workers is 2 because AllocsPerRun
	// pins GOMAXPROCS to 1, which would hide the probe-batch fan-out.
	sopts := repro.SensitivityOptions{
		Constraint:   weaklyhard.Constraint{M: 24, K: 50},
		ScaleDenom:   20,
		MaxScale:     40,
		FrontierMaxK: 20,
		Tasks:        []string{"tau1d", "tau3d", "tau5d", "tau3c"},
		Workers:      2,
	}
	store := repro.NewSensitivityWarmStore()
	if _, err := (repro.AnalysisRequest{System: sys, Chain: "sigma_c"}).SensitivityWarm(context.Background(), sopts, nil, store); err != nil {
		t.Fatal(err)
	}
	sysHash, err := repro.CanonicalHash(sys)
	if err != nil {
		t.Fatal(err)
	}
	warmQuery := repro.AnalysisRequest{System: store.Nominal(sysHash), Chain: "sigma_c", SystemHash: sysHash}
	if warmQuery.System == nil {
		t.Fatal("warm store retains no nominal system after a query")
	}
	// The same query shape under (k-1, k) for a k no stored analysis has
	// answered yet, one new k per call. Every probe still hits the store
	// (on σc each perturbed system either misses all k deadlines or
	// holds k-1 for every k ≥ 200, so the probe sequence is the same for
	// each k), and each stored analysis with a knapsack is asked dmm(k)
	// for the first time.
	firstK := sopts
	firstK.Constraint = weaklyhard.Constraint{M: 199, K: 200}
	firstStore := repro.NewSensitivityWarmStore()
	if _, err := (repro.AnalysisRequest{System: sys, Chain: "sigma_c"}).SensitivityWarm(context.Background(), firstK, nil, firstStore); err != nil {
		t.Fatal(err)
	}
	firstQuery := repro.AnalysisRequest{System: firstStore.Nominal(sysHash), Chain: "sigma_c", SystemHash: sysHash}
	primedMisses := firstStore.Stats().Misses
	thalesJSON, err := os.ReadFile("examples/data/thales.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		f       func() error
	}{
		// Table II's breakpoint scan up to k = 260: 627 (656). An Ω map
		// per breakpoint and two allocations per memoized solve cost 954
		// (970); a string key per memoized solve cost 1,109; rebuilding
		// the ILP's branching order, column view and buffers on every
		// solve cost 3,357 (3,377).
		{"TableII", 3, 820, func() error { _, _, err := experiments.TableII(260); return err }},
		// A fresh σc analysis plus the cold-sweep curve: 234. An Ω map
		// per point and two allocations per memoized solve cost 466; a
		// string key per memoized solve cost 542; rebuilding the ILP per
		// solve and a capacity vector per query cost 1,403.
		{"ColdSweep", 3, 295, func() error {
			an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
			if err != nil {
				return err
			}
			_, err = an.CurveCtx(context.Background(), sweep)
			return err
		}},
		// One solve of a compiled template in reused scratch: 1, the
		// returned assignment. A one-shot Maximize of the same problem
		// allocates 12; before the template split it allocated 21.
		{"ILPSolve", 50, 1, func() error {
			solves++
			_, err := tmpl.Solve(context.Background(), &scratch, capacities[solves%2])
			return err
		}},
		// A 100-assignment slice of Figure 5, seed 1: 15,953 (16,457
		// with two allocations per memoized solve and the overload
		// chains grown by append, 16,614 with a string key per memoized
		// solve, 17,444 before the ILP template).
		{"Figure5", 3, 20000, func() error { _, err := experiments.Figure5(100, 1, twca.Options{}, 1); return err }},
		// dmm(250) on a prepared analysis is a memo hit: 1, the Ω
		// slice (2 with an Ω map, 3 before the ILP template).
		{"DMMQuery", 50, 1, func() error { _, err := warm.DMM(250); return err }},
		// The same memo hit without Ω: 0.
		{"DMMValueQuery", 50, 0, func() error { _, err := warm.DMMValueCtx(context.Background(), 250); return err }},
		// A warm repeat of the sensitivity-sweep query: 86 (89). A
		// string-keyed dmm(k) memo, one warm-store lookup per probe and a
		// growing probe memo cost 105; a memo entry per warm hit,
		// candidate buffers per batch, fanning all-warm batches out and
		// re-hashing the nominal system cost 446 before that.
		{"WarmSensitivityQuery", 10, 108, func() error {
			_, err := warmQuery.SensitivityWarm(context.Background(), sopts, nil, store)
			return err
		}},
		// The warm query asking its stored analyses a first-time k: 284
		// (286), most of it the knapsack solves a new k needs. Two
		// allocations per memoized solve cost 360 (362); the
		// string-keyed dmm(k) memo cost 431.
		{"WarmSensitivityFirstK", 10, 360, func() error {
			firstK.Constraint.K++
			firstK.Constraint.M++
			if _, err := firstQuery.SensitivityWarm(context.Background(), firstK, nil, firstStore); err != nil {
				return err
			}
			if misses := firstStore.Stats().Misses; misses != primedMisses {
				return fmt.Errorf("k=%d: %d probes missed the warm store", firstK.Constraint.K, misses-primedMisses)
			}
			return nil
		}},
		// Decoding examples/data/thales.json, validation included: 76.
		// Growing the chain and task slices by append from nil cost 86.
		{"DecodeThales", 20, 95, func() error {
			var sys repro.System
			return json.Unmarshal(thalesJSON, &sys)
		}},
		// The service's decode of a system the envelope decoder has
		// already checked: (*System).UnmarshalJSON without
		// json.Unmarshal's outer scan, 70 (DecodeThales' path costs 76).
		{"UnmarshalThales", 20, 88, func() error {
			var sys repro.System
			return sys.UnmarshalJSON(thalesJSON)
		}},
		// BenchmarkSimMapped's run: 6,244. A mapped run that allocated
		// its running set on every step cost 13,392.
		{"SimMapped", 3, 8000, func() error {
			_, err := sim.Run(sys, sim.Config{Horizon: 100_000, Mapping: mapping})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(c.runs, func() {
				if e := c.f(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs (ceiling %.0f)", allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Errorf("%s allocates %.0f times per call, ceiling %.0f", c.name, allocs, c.ceiling)
			}
		})
	}
}

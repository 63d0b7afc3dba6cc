package repro_test

import (
	"context"
	"math"
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
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		f       func() error
	}{
		// Table II's breakpoint scan up to k = 260: 1,109 (about 1,130). Rebuilding
		// the ILP's branching order, column view and buffers on every
		// solve cost 3,357 (3,377).
		{"TableII", 3, 1390, func() error { _, _, err := experiments.TableII(260); return err }},
		// A fresh σc analysis plus the cold-sweep curve: 542. Rebuilding
		// the ILP per solve and a capacity vector per query cost 1,403.
		{"ColdSweep", 3, 680, func() error {
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
			_, err := tmpl.Solve(context.Background(), &scratch, capacities[solves%2], nil)
			return err
		}},
		// A 100-assignment slice of Figure 5, seed 1: 16,614 (17,444
		// before the ILP template).
		{"Figure5", 3, 20800, func() error { _, err := experiments.Figure5(100, 1, twca.Options{}, 1); return err }},
		// dmm(250) on a prepared analysis is a memo hit: 2, the Ω map
		// (3 before the ILP template).
		{"DMMQuery", 50, 4, func() error { _, err := warm.DMM(250); return err }},
		// The same memo hit without the Ω map: 0.
		{"DMMValueQuery", 50, 0, func() error { _, err := warm.DMMValueCtx(context.Background(), 250); return err }},
		// A warm repeat of the sensitivity-sweep query: 105 (108).
		// Allocating a memo entry per warm hit and candidate buffers per
		// batch, fanning all-warm batches out and re-hashing the nominal
		// system cost 446.
		{"WarmSensitivityQuery", 10, 132, func() error {
			_, err := warmQuery.SensitivityWarm(context.Background(), sopts, nil, store)
			return err
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

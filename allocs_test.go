package repro_test

import (
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/twca"
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
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		f       func() error
	}{
		// Table II's breakpoint scan up to k = 260: 3,357 (3,377).
		{"TableII", 3, 4200, func() error { _, _, err := experiments.TableII(260); return err }},
		// A 100-assignment slice of Figure 5, seed 1: 17,444.
		{"Figure5", 3, 22000, func() error { _, err := experiments.Figure5(100, 1, twca.Options{}, 1); return err }},
		// dmm(250) on a prepared analysis is a memo hit: 3.
		{"DMMQuery", 50, 4, func() error { _, err := warm.DMM(250); return err }},
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

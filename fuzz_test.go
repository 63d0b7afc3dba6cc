package repro_test

import (
	"errors"
	"math"
	"testing"

	"repro"
)

// fuzzSystem is a minimal valid system shared by the option fuzzers, so
// AnalysisRequest.Validate exercises the full option path (not just the
// missing-system early exit).
func fuzzSystem(t testing.TB) *repro.System {
	t.Helper()
	sys, err := repro.ParseDSL("system fuzz\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n")
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// FuzzOptionsValidate throws adversarial values (negative, overflowing,
// contradictory) at the analysis option surface. The contract under
// fuzz: Validate never panics, and every rejection reported through
// AnalysisRequest is errors.Is-able as ErrInvalidOptions — a service
// can turn any bad-options failure into a 400 without string matching.
func FuzzOptionsValidate(f *testing.F) {
	f.Add(0, int64(0), int64(0), 0, false, false, false)
	f.Add(-1, int64(-1), int64(-1), -1, true, true, true)
	f.Add(1, int64(math.MaxInt64), int64(math.MaxInt64), math.MaxInt32, false, true, true)
	f.Add(math.MinInt32, int64(math.MinInt64), int64(math.MinInt64), math.MinInt32, true, true, false)
	f.Add(1<<20, int64(4096), int64(1)<<40, 1<<20, false, true, false)

	sys := fuzzSystem(f)
	f.Fuzz(func(t *testing.T, maxComb int, maxQ, horizon int64, maxIter int, exact, flat, noCarryIn bool) {
		opts := repro.Options{
			MaxCombinations: maxComb,
			ExactCriterion:  exact,
			Flat:            flat,
			NoCarryIn:       noCarryIn,
			Latency: repro.LatencyOptions{
				MaxQ:          maxQ,
				Horizon:       repro.Time(horizon),
				MaxIterations: maxIter,
			},
		}
		// Validate directly: must never panic, errors only for the
		// documented negative values.
		err := opts.Validate()
		wantBad := maxComb < 0 || maxQ < 0 || horizon < 0 || maxIter < 0
		if (err != nil) != wantBad {
			t.Fatalf("Options.Validate() = %v with maxComb=%d maxQ=%d horizon=%d maxIter=%d",
				err, maxComb, maxQ, horizon, maxIter)
		}
		// Through the facade: rejections carry the sentinel.
		req := repro.AnalysisRequest{System: sys, Chain: "c", Options: opts}
		if err := req.Validate(); err != nil && !errors.Is(err, repro.ErrInvalidOptions) {
			t.Fatalf("AnalysisRequest.Validate() = %v, not ErrInvalidOptions", err)
		}
	})
}

// FuzzLatencyOptionsValidate is the same contract for the standalone
// latency option surface.
func FuzzLatencyOptionsValidate(f *testing.F) {
	f.Add(int64(0), int64(0), 0)
	f.Add(int64(-1), int64(-1), -1)
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), math.MaxInt32)
	f.Add(int64(math.MinInt64), int64(math.MinInt64), math.MinInt32)

	f.Fuzz(func(t *testing.T, maxQ, horizon int64, maxIter int) {
		opts := repro.LatencyOptions{MaxQ: maxQ, Horizon: repro.Time(horizon), MaxIterations: maxIter}
		err := opts.Validate()
		wantBad := maxQ < 0 || horizon < 0 || maxIter < 0
		if (err != nil) != wantBad {
			t.Fatalf("LatencyOptions.Validate() = %v with maxQ=%d horizon=%d maxIter=%d", err, maxQ, horizon, maxIter)
		}
	})
}

package repro_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro"
)

// TestAnalysisRequestMatchesWrappers pins the deprecated per-kind
// functions to the request API they now delegate to.
func TestAnalysisRequestMatchesWrappers(t *testing.T) {
	sys := repro.CaseStudy()
	ctx := context.Background()

	req := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}
	an, err := req.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	old, err := repro.AnalyzeDMM(sys, "sigma_c", repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := an.DMM(10)
	r2, _ := old.DMM(10)
	if r1.Value != r2.Value {
		t.Errorf("request DMM %d != wrapper DMM %d", r1.Value, r2.Value)
	}

	lat, err := req.Latency(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oldLat, err := repro.AnalyzeLatency(sys, "sigma_c", repro.LatencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lat.WCL != oldLat.WCL {
		t.Errorf("request WCL %d != wrapper WCL %d", lat.WCL, oldLat.WCL)
	}
}

// TestOptionsBaseline pins the Options.Baseline flag to the deprecated
// AnalyzeDMMBaseline entry point and the Flat spelling.
func TestOptionsBaseline(t *testing.T) {
	sys := repro.CaseStudy()
	ctx := context.Background()

	viaFlag, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: repro.Options{Baseline: true}}.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	viaFunc, err := repro.AnalyzeDMMBaseline(sys, "sigma_c", repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaFlat, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: repro.Options{Flat: true}}.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if viaFlag.Latency.WCL != viaFunc.Latency.WCL || viaFlag.Latency.WCL != viaFlat.Latency.WCL {
		t.Errorf("baseline spellings disagree: flag %d, func %d, flat %d",
			viaFlag.Latency.WCL, viaFunc.Latency.WCL, viaFlat.Latency.WCL)
	}
	f1, _ := viaFlag.DMM(10)
	f2, _ := viaFunc.DMM(10)
	if f1.Value != f2.Value {
		t.Errorf("baseline flag dmm %d != baseline func dmm %d", f1.Value, f2.Value)
	}
	// Baseline is coarser than chain-aware where chain structure defers
	// interference (σd in the case study; σc happens to coincide).
	baseD, err := repro.AnalysisRequest{System: sys, Chain: "sigma_d", Options: repro.Options{Baseline: true}}.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	awareD, err := repro.AnalysisRequest{System: sys, Chain: "sigma_d"}.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if baseD.Latency.WCL <= awareD.Latency.WCL {
		t.Errorf("baseline WCL %d should exceed chain-aware %d on σd", baseD.Latency.WCL, awareD.Latency.WCL)
	}
}

// TestSentinelRoundTrips audits mapErr: every exported sentinel must be
// reachable through the facade and match under errors.Is, with the
// underlying cause preserved in the chain.
func TestSentinelRoundTrips(t *testing.T) {
	sys := repro.CaseStudy()
	ctx := context.Background()

	// ErrNoChain.
	_, err := repro.AnalysisRequest{System: sys, Chain: "nope"}.DMM(ctx)
	if !errors.Is(err, repro.ErrNoChain) {
		t.Errorf("unknown chain: err = %v, want ErrNoChain", err)
	}

	// ErrInvalidOptions — bad options and nil system.
	_, err = repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: repro.Options{MaxCombinations: -1}}.DMM(ctx)
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("negative MaxCombinations: err = %v, want ErrInvalidOptions", err)
	}
	_, err = repro.AnalysisRequest{Chain: "sigma_c"}.DMM(ctx)
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("nil system: err = %v, want ErrInvalidOptions", err)
	}

	// ErrNoDeadline — DMM of a deadline-free chain.
	b := repro.NewBuilder("nodl")
	b.Chain("free").Periodic(100).Task("t1", 1, 10)
	nodl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = repro.AnalysisRequest{System: nodl, Chain: "free"}.DMM(ctx)
	if !errors.Is(err, repro.ErrNoDeadline) {
		t.Errorf("deadline-free chain: err = %v, want ErrNoDeadline", err)
	}

	// ErrTooManyCombinations — a one-combination budget on a system with
	// two overload chains.
	_, err = repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: repro.Options{MaxCombinations: 1}}.DMM(ctx)
	if !errors.Is(err, repro.ErrTooManyCombinations) {
		t.Errorf("tiny combination budget: err = %v, want ErrTooManyCombinations", err)
	}

	// ErrUnschedulable — demand exceeds capacity at the target priority.
	b = repro.NewBuilder("overload")
	b.Chain("hog").Periodic(10).Deadline(10).Task("h1", 1, 20)
	hog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = repro.AnalysisRequest{System: hog, Chain: "hog"}.DMM(ctx)
	if !errors.Is(err, repro.ErrUnschedulable) {
		t.Errorf("overloaded system: err = %v, want ErrUnschedulable", err)
	}

	// ErrCanceled — with the context cause still in the chain.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.DMM(canceled)
	if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// ErrInfeasibleConstraint — sensitivity of a constraint below the
	// nominal dmm.
	_, err = repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.Sensitivity(ctx,
		repro.SensitivityOptions{Constraint: repro.Constraint{M: 2, K: 10}})
	if !errors.Is(err, repro.ErrInfeasibleConstraint) {
		t.Errorf("infeasible constraint: err = %v, want ErrInfeasibleConstraint", err)
	}
}

// TestFacadeSensitivity runs the full sensitivity query through the
// facade and checks the probe hook's hash contract.
func TestFacadeSensitivity(t *testing.T) {
	sys := repro.CaseStudy()
	ctx := context.Background()
	req := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}
	sopts := repro.SensitivityOptions{
		Constraint:   repro.Constraint{M: 5, K: 10},
		FrontierMaxK: 20,
		Tasks:        []string{"tau3c"},
	}

	res, err := req.Sensitivity(ctx, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NominalDMM != 5 || len(res.Frontier) != 20 || len(res.Breakdown) != 2 {
		t.Errorf("unexpected result shape: dmm=%d frontier=%d breakdown=%d",
			res.NominalDMM, len(res.Frontier), len(res.Breakdown))
	}

	// The probe hook sees every analysis with a precomputed content hash.
	// Probes run on parallel workers, hence the atomic counter.
	var probes atomic.Int64
	_, err = req.SensitivityWith(ctx, sopts, func(ctx context.Context, sys *repro.System, hash, chain string, opts repro.Options, warm *repro.WarmStart) (*repro.Analysis, error) {
		probes.Add(1)
		if len(hash) != 64 {
			t.Errorf("probe hash = %q, want 64 hex chars", hash)
		}
		if chain != "sigma_c" {
			t.Errorf("probe chain = %q", chain)
		}
		return repro.AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMMWarm(ctx, warm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := probes.Load(); got != int64(res.Analyses) {
		t.Errorf("probe hook saw %d analyses, result reports %d", got, res.Analyses)
	}

	// Bad sensitivity options and unknown tasks map to ErrInvalidOptions.
	_, err = req.Sensitivity(ctx, repro.SensitivityOptions{})
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("zero sensitivity options: err = %v, want ErrInvalidOptions", err)
	}
	bad := sopts
	bad.Tasks = []string{"no_such_task"}
	_, err = req.Sensitivity(ctx, bad)
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("unknown task: err = %v, want ErrInvalidOptions", err)
	}
}

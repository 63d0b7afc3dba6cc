package repro_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro"
)

// TestOptionsBaseline pins Options.Flat, the one spelling of the
// paper's §VI structure-blind baseline, on every analysis that reads
// it: DMM and the sensitivity probes.
func TestOptionsBaseline(t *testing.T) {
	sys := repro.CaseStudy()
	ctx := context.Background()
	flat := repro.Options{Flat: true}

	// On σc every chain already interferes arbitrarily, so the two views
	// coincide.
	baseC, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: flat}.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := baseC.DMM(10); baseC.Latency.WCL != 331 || r.Value != 5 {
		t.Errorf("flat σc: WCL %d, dmm(10) %d; want 331, 5", baseC.Latency.WCL, r.Value)
	}
	// On σd the chain structure defers interference: the baseline cannot
	// prove schedulability and bounds dmm(10) by 4 where the chain-aware
	// analysis proves 0.
	baseD, err := repro.AnalysisRequest{System: sys, Chain: "sigma_d", Options: flat}.DMM(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := baseD.DMM(10); baseD.Latency.Schedulable || r.Value != 4 {
		t.Errorf("flat σd: schedulable %v, dmm(10) %d; want false, 4", baseD.Latency.Schedulable, r.Value)
	}
	// The option reaches the sensitivity probes, nominal included.
	sopts := repro.SensitivityOptions{Constraint: repro.Constraint{M: 4, K: 10}, Tasks: []string{}}
	res, err := repro.AnalysisRequest{System: sys, Chain: "sigma_d", Options: flat}.Sensitivity(ctx, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NominalDMM != 4 {
		t.Errorf("flat σd sensitivity: nominal dmm(10) = %d, want 4", res.NominalDMM)
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

	// ErrPolicyUnsupported — analysis under a simulation-only policy.
	_, err = repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: repro.Options{Policy: repro.PolicyJCL}}.DMM(ctx)
	if !errors.Is(err, repro.ErrPolicyUnsupported) {
		t.Errorf("jcl policy: err = %v, want ErrPolicyUnsupported", err)
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
	_, err = req.SensitivityWarm(ctx, sopts, func(ctx context.Context, sys *repro.System, hash, chain string, opts repro.Options) (*repro.Analysis, error) {
		probes.Add(1)
		if len(hash) != 64 {
			t.Errorf("probe hash = %q, want 64 hex chars", hash)
		}
		if chain != "sigma_c" {
			t.Errorf("probe chain = %q", chain)
		}
		return repro.AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMM(ctx)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := probes.Load(); got != int64(res.Analyses) {
		t.Errorf("probe hook saw %d analyses, result reports %d", got, res.Analyses)
	}
}

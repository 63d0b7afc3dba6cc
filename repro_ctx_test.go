package repro_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// TestFacadeSentinels pins the errors.Is contract on the Latency and
// Sensitivity methods of AnalysisRequest; TestSentinelRoundTrips does
// the same for DMM.
func TestFacadeSentinels(t *testing.T) {
	sys := repro.CaseStudy()
	ctx := context.Background()

	_, err := repro.AnalysisRequest{System: sys, Chain: "nope"}.Latency(ctx)
	if !errors.Is(err, repro.ErrNoChain) {
		t.Errorf("latency unknown chain err = %v, want ErrNoChain", err)
	}
	_, err = repro.AnalysisRequest{System: sys, Chain: "sigma_c",
		Options: repro.Options{Latency: repro.LatencyOptions{MaxQ: -5}}}.Latency(ctx)
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("negative MaxQ err = %v, want ErrInvalidOptions", err)
	}

	// Utilization > 1 at the highest priority: no busy window closes.
	b := repro.NewBuilder("overloaded")
	b.Chain("c").Periodic(10).Deadline(10).Task("t", 1, 20)
	over, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = repro.AnalysisRequest{System: over, Chain: "c"}.Latency(ctx)
	if !errors.Is(err, repro.ErrUnschedulable) {
		t.Errorf("overloaded system err = %v, want ErrUnschedulable", err)
	}

	// Sensitivity: the request is validated before the query options,
	// and both option checks (values, task names) run before any
	// analysis.
	sopts := repro.SensitivityOptions{Constraint: repro.Constraint{M: 5, K: 10}}
	_, err = repro.AnalysisRequest{System: sys, Chain: "nope"}.Sensitivity(ctx, sopts)
	if !errors.Is(err, repro.ErrNoChain) {
		t.Errorf("sensitivity unknown chain err = %v, want ErrNoChain", err)
	}
	req := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}
	_, err = req.Sensitivity(ctx, repro.SensitivityOptions{})
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("zero sensitivity options err = %v, want ErrInvalidOptions", err)
	}
	bad := sopts
	bad.Tasks = []string{"no_such_task"}
	var probes atomic.Int64
	_, err = req.SensitivityWarm(ctx, bad, func(ctx context.Context, sys *repro.System, _, chain string, opts repro.Options) (*repro.Analysis, error) {
		probes.Add(1)
		return repro.AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMM(ctx)
	}, nil)
	if !errors.Is(err, repro.ErrInvalidOptions) {
		t.Errorf("unknown task err = %v, want ErrInvalidOptions", err)
	}
	if n := probes.Load(); n != 0 {
		t.Errorf("unknown task ran %d analyses before failing, want 0", n)
	}
}

// TestFacadeCancellation: an already-canceled context stops every
// analysis kind and the simulator, and the error matches both the
// facade sentinel and the underlying context error.
func TestFacadeCancellation(t *testing.T) {
	sys := repro.CaseStudy()
	req := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := req.DMM(ctx); err == nil {
		t.Error("DMM ran to completion under canceled context")
	} else if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("DMM err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	if _, err := req.Latency(ctx); err == nil {
		t.Error("Latency ran to completion under canceled context")
	} else if !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("Latency err = %v, want ErrCanceled", err)
	}

	sopts := repro.SensitivityOptions{Constraint: repro.Constraint{M: 5, K: 10}}
	if _, err := req.Sensitivity(ctx, sopts); err == nil {
		t.Error("Sensitivity ran to completion under canceled context")
	} else if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("Sensitivity err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	if _, err := repro.SimulateCtx(ctx, sys, repro.SimConfig{Horizon: 1_000_000}); err == nil {
		t.Error("SimulateCtx ran to completion under canceled context")
	} else if !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("SimulateCtx err = %v, want ErrCanceled", err)
	}

	// Analysis queries accept a context of their own.
	an, err := req.DMM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.BreakpointsCtx(ctx, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("BreakpointsCtx err = %v, want context.Canceled", err)
	}
	if r, err := an.DMMCtx(context.Background(), 10); err != nil || r.Value != 5 {
		t.Errorf("DMMCtx(10) = (%d, %v), want (5, nil)", r.Value, err)
	}

	// A deadline in the past maps the same way but keeps the cause.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	if _, err := req.DMM(dctx); !errors.Is(err, repro.ErrCanceled) ||
		!errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestFacadeCanonicalHash: the facade exposes the content address the
// analysis service keys its cache on.
func TestFacadeCanonicalHash(t *testing.T) {
	h1, err := repro.CanonicalHash(repro.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := repro.CanonicalHash(repro.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Errorf("CanonicalHash unstable or malformed: %q vs %q", h1, h2)
	}
}

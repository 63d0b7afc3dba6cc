package latency_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/latency"
	"repro/internal/segments"
)

// These tests arm the process-global fault-injection harness, so none
// of them may use t.Parallel().

func sigmaCInfo() *segments.Info {
	sys := casestudy.New()
	return segments.Analyze(sys, sys.ChainByName("sigma_c"))
}

func TestTrivialResultShape(t *testing.T) {
	info := sigmaCInfo()
	r := latency.TrivialResult(info, degrade.BudgetFixedPoint)
	if !r.WCL.IsInf() {
		t.Errorf("WCL = %d, want Infinity", r.WCL)
	}
	if r.K != 1 || len(r.BusyTimes) != 1 || !r.BusyTimes[0].IsInf() {
		t.Errorf("K = %d, BusyTimes = %v, want one infinite window", r.K, r.BusyTimes)
	}
	if r.MissesPerWindow != 1 {
		t.Errorf("MissesPerWindow = %d, want 1 (chain has a deadline)", r.MissesPerWindow)
	}
	if r.Schedulable {
		t.Error("trivial result of a deadline chain reports schedulable")
	}
	if r.Quality.Quality != degrade.Trivial || r.Quality.Budget != degrade.BudgetFixedPoint || r.Quality.Rung != degrade.RungLemma3 {
		t.Errorf("quality tag = %+v", r.Quality)
	}
	// BCL stays exact: the summed best-case execution times.
	var bcl curves.Time
	for _, task := range info.B.Tasks {
		bcl = curves.AddSat(bcl, task.BCET)
	}
	if r.BCL != bcl {
		t.Errorf("BCL = %d, want %d", r.BCL, bcl)
	}
}

func TestInjectedDivergenceDegradesToTrivial(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget},
	}); err != nil {
		t.Fatal(err)
	}
	info := sigmaCInfo()

	// Without the ladder, the injected budget exhaustion is a hard
	// ErrDiverged failure.
	if _, err := latency.AnalyzeInfo(info, latency.Options{}); !errors.Is(err, latency.ErrDiverged) {
		t.Fatalf("without Allow: err = %v, want ErrDiverged", err)
	}

	// With it, the analysis lands on the sound trivial floor.
	r, err := latency.AnalyzeInfo(info, latency.Options{Degrade: degrade.Policy{Allow: true}})
	if err != nil {
		t.Fatalf("with Allow: %v", err)
	}
	if r.Quality.Quality != degrade.Trivial {
		t.Errorf("quality = %+v, want Trivial", r.Quality)
	}
	if r.Quality.Budget != degrade.BudgetFixedPoint {
		t.Errorf("budget = %q, want %q", r.Quality.Budget, degrade.BudgetFixedPoint)
	}
	// The trivial WCL must dominate the exact one (soundness).
	faultinject.Disarm()
	exact, err := latency.AnalyzeInfo(info, latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.WCL < exact.WCL {
		t.Errorf("trivial WCL %d < exact WCL %d — wrong-side bound", r.WCL, exact.WCL)
	}
	if r.MissesPerWindow < exact.MissesPerWindow {
		t.Errorf("trivial N_b %d < exact N_b %d — wrong-side bound", r.MissesPerWindow, exact.MissesPerWindow)
	}
}

func TestExpiredDeadlineDegradesButCancellationPropagates(t *testing.T) {
	info := sigmaCInfo()
	opts := latency.Options{Degrade: degrade.Policy{Allow: true}}

	expired, cancel := context.WithDeadline(context.Background(), time.Time{})
	defer cancel()
	r, err := latency.AnalyzeInfoCtx(expired, info, opts)
	if err != nil {
		t.Fatalf("expired deadline did not degrade: %v", err)
	}
	if r.Quality.Quality != degrade.Trivial || r.Quality.Budget != degrade.BudgetDeadline {
		t.Errorf("quality = %+v, want trivial/deadline", r.Quality)
	}

	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := latency.AnalyzeInfoCtx(canceled, info, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation was absorbed by the ladder: %v", err)
	}
}

// TestInjectedSeamSkippedByOverloadCertificate is the host-independent
// gate of the ladder's overload certificate: with an error armed at
// every busy-window seam arrival, σc with tau3c's WCET doubled (long-run
// load about 1.11) still degrades on the fixed-point budget, because the
// certificate answers before any fixed point starts. Without it the
// first B(1) hits the seam and the budget reads "injected".
func TestInjectedSeamSkippedByOverloadCertificate(t *testing.T) {
	sys := casestudy.New()
	c := sys.ChainByName("sigma_c")
	for i := range c.Tasks {
		if c.Tasks[i].Name == "tau3c" {
			c.Tasks[i].WCET *= 2
		}
	}
	info := segments.Analyze(sys, c)

	defer faultinject.Disarm()
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := latency.AnalyzeInfo(info, latency.Options{Degrade: degrade.Policy{Allow: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Quality.Quality != degrade.Trivial || r.Quality.Budget != degrade.BudgetFixedPoint {
		t.Errorf("quality = %+v, want trivial on the fixed-point budget", r.Quality)
	}
	if n := faultinject.FireCounts()[faultinject.PointBusyWindow]; n != 0 {
		t.Errorf("busy-window seam reached %d times, want 0", n)
	}

	// Fail-hard callers keep the search, so they still reach the seam.
	if _, err := latency.AnalyzeInfo(info, latency.Options{}); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("fail-hard err = %v, want the injected fault", err)
	}
}

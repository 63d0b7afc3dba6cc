package repro_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart
// example does: build → analyze → simulate → serialize.
func TestFacadeEndToEnd(t *testing.T) {
	b := repro.NewBuilder("facade")
	b.Chain("work").Periodic(100).Deadline(100).
		Task("w1", 3, 10).
		Task("w2", 1, 20)
	b.Chain("irq").Sporadic(500).Overload().
		Task("i1", 2, 15)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	lat, err := repro.AnalysisRequest{System: sys, Chain: "work"}.Latency(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Hand check: B(1) = 30 + 15 (irq arbitrarily interferes) = 45.
	if lat.WCL != 45 {
		t.Errorf("WCL = %d, want 45", lat.WCL)
	}

	an, err := repro.AnalysisRequest{System: sys, Chain: "work"}.DMM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := an.DMM(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Errorf("dmm(10) = %d, want 0 (schedulable)", r.Value)
	}

	res, err := repro.Simulate(sys, repro.SimConfig{Horizon: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Chains["work"].MaxLatency; got > lat.WCL {
		t.Errorf("simulated latency %d exceeds WCL %d", got, lat.WCL)
	}

	var buf bytes.Buffer
	if err := repro.StoreSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "facade" || back.TaskCount() != 3 {
		t.Error("JSON round trip via facade changed the system")
	}
}

func TestFacadeCaseStudy(t *testing.T) {
	sys := repro.CaseStudy()
	lat, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.Latency(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lat.WCL != 331 {
		t.Errorf("facade WCL_c = %d, want 331", lat.WCL)
	}
}

func TestFacadeEventModels(t *testing.T) {
	if got := repro.Periodic(200).EtaPlus(201); got != 2 {
		t.Errorf("Periodic EtaPlus = %d, want 2", got)
	}
	if got := repro.Sporadic(600).DeltaMin(3); got != 1200 {
		t.Errorf("Sporadic DeltaMin = %d, want 1200", got)
	}
	if got := repro.Burst(1000, 3, 10).EtaPlus(21); got != 3 {
		t.Errorf("Burst EtaPlus = %d, want 3", got)
	}
	if got := repro.PeriodicJitter(200, 30, 5).DeltaMin(2); got != 170 {
		t.Errorf("PeriodicJitter DeltaMin = %d, want 170", got)
	}
}

func TestFacadeUnknownChainErrors(t *testing.T) {
	ctx := context.Background()
	req := repro.AnalysisRequest{System: repro.CaseStudy(), Chain: "nope"}
	if _, err := req.Latency(ctx); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Latency unknown chain: err = %v", err)
	}
	if _, err := req.DMM(ctx); err == nil {
		t.Error("DMM unknown chain accepted")
	}
	req.Options.Flat = true
	if _, err := req.DMM(ctx); err == nil {
		t.Error("flat DMM unknown chain accepted")
	}
}

func TestFacadeExtensions(t *testing.T) {
	sys := repro.CaseStudy()
	// DSL round trip through the facade.
	text, err := repro.FormatDSL(sys)
	if err != nil {
		t.Fatal(err)
	}
	back, err := repro.ParseDSL(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.TaskCount() != 13 {
		t.Errorf("DSL round trip task count = %d", back.TaskCount())
	}
	// Lint: nominal case study is clean.
	if warns := repro.Lint(sys); len(warns) != 0 {
		t.Errorf("Lint = %v, want clean", warns)
	}
	// Weakly-hard via facade.
	an, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.DMM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := repro.Verify(an, repro.Constraint{M: 5, K: 10})
	if err != nil || !ok {
		t.Errorf("Verify(5,10) = %v, %v", ok, err)
	}
	c, err := repro.MaxConsecutiveMisses(an, 50)
	if err != nil || c != 3 {
		t.Errorf("MaxConsecutiveMisses = %d, %v, want 3", c, err)
	}
	// Mapped simulation via facade (single resource = plain run); the
	// mapping travels inside SimConfig since SimulateMapped was removed.
	res, err := repro.Simulate(sys, repro.SimConfig{Horizon: 10_000, Mapping: nil})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chains["sigma_c"].Completions != 50 {
		t.Errorf("mapped completions = %d, want 50", res.Chains["sigma_c"].Completions)
	}
}

func TestFacadeBaseline(t *testing.T) {
	sys := repro.CaseStudy()
	base, err := repro.AnalysisRequest{System: sys, Chain: "sigma_d", Options: repro.Options{Flat: true}}.DMM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	aware, err := repro.AnalysisRequest{System: sys, Chain: "sigma_d"}.DMM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if base.Latency.WCL <= aware.Latency.WCL {
		t.Errorf("baseline WCL %d should exceed chain-aware %d on σd",
			base.Latency.WCL, aware.Latency.WCL)
	}
}

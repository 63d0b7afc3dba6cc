package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestNonPreemptiveRunsToCompletion hand-computes the defining np-spp
// scenario: a high-priority job arriving mid-execution of a low-priority
// one waits for it under np-spp but preempts it under spp.
func TestNonPreemptiveRunsToCompletion(t *testing.T) {
	b := model.NewBuilder("np")
	b.Chain("low").Periodic(1000).Deadline(1000).Task("l", 1, 50)
	b.Chain("high").Periodic(1000).Deadline(1000).Task("h", 2, 20)
	sys := b.MustBuild()
	cfg := sim.Config{Horizon: 1000, OffsetsFor: map[string]curves.Time{"high": 10}}

	spp, err := sim.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// spp: high preempts at t=10, done 30 (latency 20); low resumes,
	// done 70 (latency 70).
	if got := spp.Chains["high"].MaxLatency; got != 20 {
		t.Errorf("spp high latency = %d, want 20", got)
	}
	if got := spp.Chains["low"].MaxLatency; got != 70 {
		t.Errorf("spp low latency = %d, want 70", got)
	}

	cfg.Policy = policy.NPSPP
	np, err := sim.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// np-spp: low runs 0..50 uninterrupted (latency 50); high waits,
	// runs 50..70 (latency 70-10 = 60).
	if got := np.Chains["low"].MaxLatency; got != 50 {
		t.Errorf("np-spp low latency = %d, want 50 (was preempted)", got)
	}
	if got := np.Chains["high"].MaxLatency; got != 60 {
		t.Errorf("np-spp high latency = %d, want 60 (blocked)", got)
	}
}

// TestEDFRanksByAbsoluteDeadline hand-computes the defining EDF
// scenario: a low-priority chain with the tighter deadline runs first,
// inverting the SPP order.
func TestEDFRanksByAbsoluteDeadline(t *testing.T) {
	b := model.NewBuilder("edf")
	b.Chain("tight").Periodic(1000).Deadline(100).Task("t", 1, 20)
	b.Chain("lax").Periodic(1000).Deadline(500).Task("x", 2, 20)
	sys := b.MustBuild()

	spp, err := sim.Run(sys, sim.Config{Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// spp: lax has the higher priority, runs 0..20; tight 20..40.
	if got := spp.Chains["tight"].MaxLatency; got != 40 {
		t.Errorf("spp tight latency = %d, want 40", got)
	}

	edf, err := sim.Run(sys, sim.Config{Horizon: 1000, Policy: policy.EDF})
	if err != nil {
		t.Fatal(err)
	}
	// edf: tight's absolute deadline 100 < lax's 500, so it runs first.
	if got := edf.Chains["tight"].MaxLatency; got != 20 {
		t.Errorf("edf tight latency = %d, want 20", got)
	}
	if got := edf.Chains["lax"].MaxLatency; got != 40 {
		t.Errorf("edf lax latency = %d, want 40", got)
	}
}

// TestJCLDeterministicForSeed pins that JCL's randomized tie-break
// draws only from the engine RNG: same seed, byte-identical statistics.
func TestJCLDeterministicForSeed(t *testing.T) {
	sys := casestudy.New()
	cfg := sim.Config{
		Horizon:   200_000,
		Policy:    policy.JCL,
		Seed:      11,
		Arrivals:  sim.RandomSpacing,
		Execution: sim.RandomExec,
	}
	a, err := sim.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Chains, b.Chains) {
		t.Error("two same-seed jcl runs disagree")
	}
}

// TestPolicyDispatchDiffers sanity-checks that the policy knob actually
// reaches the scheduler: on the case study, spp and edf produce
// different latency profiles.
func TestPolicyDispatchDiffers(t *testing.T) {
	sys := casestudy.New()
	base := sim.Config{Horizon: 100_000}
	spp, err := sim.Run(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	edfCfg := base
	edfCfg.Policy = policy.EDF
	edf, err := sim.Run(sys, edfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(spp.Chains, edf.Chains) {
		t.Error("spp and edf simulations are identical; policy not dispatched")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	sys := casestudy.New()
	if _, err := sim.Run(sys, sim.Config{Horizon: 1000, Policy: "fifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestMappedRejectsNonPreemptive pins the documented limitation: a run
// with a Mapping is preemptive-only, and says so with the typed
// sentinel.
func TestMappedRejectsNonPreemptive(t *testing.T) {
	b := model.NewBuilder("mapped-np")
	b.Chain("x").Periodic(100).Deadline(200).Task("a", 1, 10)
	sys := b.MustBuild()
	cfg := sim.Config{Horizon: 1000, Policy: policy.NPSPP, Mapping: map[string]string{"a": "r0"}}
	_, err := sim.Run(sys, cfg)
	if !errors.Is(err, policy.ErrUnsupported) {
		t.Errorf("mapped np-spp error = %v, want ErrUnsupported", err)
	}
}

// TestPoliciesWithAbortOnMiss exercises the abort path under every
// uniprocessor policy — the contract is just "runs and stays sound":
// aborted instances count as misses.
func TestPoliciesWithAbortOnMiss(t *testing.T) {
	sys := casestudy.New()
	for _, name := range policy.Names() {
		res, err := sim.Run(sys, sim.Config{Horizon: 50_000, Policy: name, AbortOnMiss: true})
		if err != nil {
			t.Fatalf("policy %s with AbortOnMiss: %v", name, err)
		}
		for cname, st := range res.Chains {
			if st.Misses < 0 || st.Completions < 0 {
				t.Errorf("policy %s chain %s: negative counters", name, cname)
			}
		}
	}
}

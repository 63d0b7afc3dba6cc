package twca_test

import (
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/twca"
)

// These tests arm the process-global fault-injection harness, so none
// of them may use t.Parallel().

// degradeTarget names one (system, chain) pair the ladder property is
// checked on: the case study, its rare-overload variant, the
// overload-free paper example, and a synthetic typically-unschedulable
// system.
type degradeTarget struct {
	name  string
	sys   *model.System
	chain string
}

func degradeTargets() []degradeTarget {
	b := model.NewBuilder("synthetic-overloaded")
	b.Chain("sigma_x").Periodic(100).Deadline(40).
		Task("tau1x", 5, 30).
		Task("tau2x", 4, 30)
	b.Chain("sigma_o").Sporadic(400).Overload().
		Task("tau1o", 6, 10)
	overloaded := b.MustBuild()
	return []degradeTarget{
		{"casestudy/sigma_c", casestudy.New(), "sigma_c"},
		{"casestudy/sigma_d", casestudy.New(), "sigma_d"},
		{"rare-overload/sigma_c", casestudy.RareOverload(3), "sigma_c"},
		{"paper-example/sigma_a", casestudy.PaperExample(), "sigma_a"},
		{"synthetic/typical-unschedulable", overloaded, "sigma_x"},
	}
}

const degradeMaxK = 60

// exactCurve computes the reference dmm values for k in [1, maxK].
func exactCurve(t *testing.T, tg degradeTarget, maxK int64) (*twca.Analysis, []int64) {
	t.Helper()
	faultinject.Disarm()
	an, err := twca.New(tg.sys, tg.sys.ChainByName(tg.chain), twca.Options{})
	if err != nil {
		t.Fatalf("%s: exact analysis: %v", tg.name, err)
	}
	vals := make([]int64, maxK+1)
	for k := int64(1); k <= maxK; k++ {
		r, err := an.DMM(k)
		if err != nil {
			t.Fatalf("%s: exact dmm(%d): %v", tg.name, k, err)
		}
		vals[k] = r.Value
	}
	return an, vals
}

// TestDegradedDMMDominatesExact is the ladder's pinned safety property
// (ISSUE acceptance criterion): for every degradation rung and every
// target, dmm_degraded(k) ≥ dmm_exact(k) at every k, and the simulator
// never observes more misses than the degraded bound allows.
func TestDegradedDMMDominatesExact(t *testing.T) {
	for _, tg := range degradeTargets() {
		_, exact := exactCurve(t, tg, degradeMaxK)

		// Rung 2 (omega-sum): a combination cap of 1 abandons the
		// enumeration before any ILP. A target with at most one
		// combination (the overload-free paper example) fits under the
		// cap and stays exact.
		skip, err := twca.New(tg.sys, tg.sys.ChainByName(tg.chain),
			twca.Options{MaxCombinations: 1, Degrade: degrade.Policy{Allow: true}})
		if err != nil {
			t.Fatalf("%s: omega-sum analysis: %v", tg.name, err)
		}
		switch {
		case skip.Degraded.Degraded():
			if skip.Degraded.Budget != degrade.BudgetCombinations || skip.Degraded.Rung != degrade.RungOmegaSum {
				t.Fatalf("%s: capped construction tagged %+v, want the combination budget on the omega-sum rung", tg.name, skip.Degraded)
			}
			if len(skip.Combinations) != 0 || len(skip.Unschedulable) != 0 {
				t.Fatalf("%s: capped construction kept combinations", tg.name)
			}
		case len(skip.Combinations) > 1:
			t.Fatalf("%s: %d combinations passed a cap of 1 undegraded", tg.name, len(skip.Combinations))
		}
		checkDominates(t, tg.name+"/omega-sum", skip, exact)

		// Rung 3 (trivial): the busy-window analysis itself is broken by
		// an injected budget fault.
		if err := faultinject.Configure([]faultinject.Rule{
			{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget},
		}); err != nil {
			t.Fatal(err)
		}
		triv, err := twca.New(tg.sys, tg.sys.ChainByName(tg.chain),
			twca.Options{Degrade: degrade.Policy{Allow: true}})
		faultinject.Disarm()
		if err != nil {
			t.Fatalf("%s: trivial analysis: %v", tg.name, err)
		}
		if triv.Degraded.Quality != degrade.Trivial {
			t.Fatalf("%s: trivial construction tag = %+v", tg.name, triv.Degraded)
		}
		for k := int64(1); k <= degradeMaxK; k++ {
			r, err := triv.DMM(k)
			if err != nil {
				t.Fatalf("%s: trivial dmm(%d): %v", tg.name, k, err)
			}
			if r.Value != k {
				t.Fatalf("%s: trivial dmm(%d) = %d, want k", tg.name, k, r.Value)
			}
			if !r.Quality.Degraded() {
				t.Fatalf("%s: trivial dmm(%d) tagged %+v", tg.name, k, r.Quality)
			}
		}

		// Simulator leg: observed misses never exceed the degraded
		// bounds (they are ≥ the exact bounds, which the sim soundness
		// suite already covers — this pins the transitive property
		// directly against both degraded rungs).
		for seed := int64(0); seed < 2; seed++ {
			cfg := sim.Config{Horizon: 100_000, Seed: seed}
			if seed > 0 {
				cfg.Arrivals = sim.RandomSpacing
			}
			res, err := sim.Run(tg.sys, cfg)
			if err != nil {
				t.Fatalf("%s: sim: %v", tg.name, err)
			}
			st := res.Chains[tg.chain]
			if st == nil {
				t.Fatalf("%s: sim has no stats for %s", tg.name, tg.chain)
			}
			for _, k := range []int64{1, 5, 10, 50} {
				r, err := skip.DMM(k)
				if err != nil {
					t.Fatal(err)
				}
				if got := st.WorstWindowMisses(int(k)); got > r.Value {
					t.Errorf("%s: seed %d: %d observed misses in %d-window > omega-sum bound %d",
						tg.name, seed, got, k, r.Value)
				}
				// Trivial bound is k — observed misses cannot exceed it
				// by construction, but assert the full chain anyway.
				if got := st.WorstWindowMisses(int(k)); got > k {
					t.Errorf("%s: seed %d: %d observed misses in %d-window > trivial bound k",
						tg.name, seed, got, k)
				}
			}
		}
	}
}

// checkDominates asserts dmm_degraded(k) ≥ dmm_exact(k) for every k,
// plus tag consistency: a value below Exact quality must explain
// itself, and undegraded values must equal the exact ones.
func checkDominates(t *testing.T, name string, degraded *twca.Analysis, exact []int64) {
	t.Helper()
	prev := int64(0)
	for k := int64(1); k < int64(len(exact)); k++ {
		r, err := degraded.DMM(k)
		if err != nil {
			t.Fatalf("%s: degraded dmm(%d): %v", name, k, err)
		}
		if !degrade.Sound(r.Value, exact[k]) {
			t.Fatalf("%s: dmm_degraded(%d) = %d < dmm_exact(%d) = %d — wrong-side bound",
				name, k, r.Value, k, exact[k])
		}
		if r.Value > k {
			t.Fatalf("%s: dmm_degraded(%d) = %d exceeds k", name, k, r.Value)
		}
		if r.Value < prev {
			t.Fatalf("%s: dmm_degraded not monotone: dmm(%d) = %d after %d", name, k, r.Value, prev)
		}
		prev = r.Value
		if !r.Quality.Degraded() {
			// The only exact shortcut that survives a degraded
			// construction is the N_b = 0 "schedulable" answer, which is
			// exact by Lemma 3 regardless of the combination space.
			if r.Trivial != "schedulable" {
				t.Fatalf("%s: dmm(%d) kept Exact quality via %q", name, k, r.Trivial)
			}
			if r.Value != exact[k] {
				t.Fatalf("%s: exact-tagged dmm(%d) = %d differs from exact %d", name, k, r.Value, exact[k])
			}
		}
	}
}

// TestInjectedILPFaultDegradesQueryOnly: an error-action fault in the
// ILP branch loop degrades the individual DMM query to the omega-sum
// rung (tagged with the injected budget), while the analysis artifact
// itself stays exact for later queries.
func TestInjectedILPFaultDegradesQueryOnly(t *testing.T) {
	defer faultinject.Disarm()
	tg := degradeTargets()[0] // casestudy/sigma_c: has a non-empty U
	an, exact := exactCurve(t, tg, 10)

	// A fresh analysis (empty memo cache) under an always-firing ILP
	// fault: every solve aborts, every query degrades.
	fresh, err := twca.New(tg.sys, tg.sys.ChainByName(tg.chain),
		twca.Options{Degrade: degrade.Policy{Allow: true}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Degraded.Degraded() {
		t.Fatalf("construction degraded unexpectedly: %+v", fresh.Degraded)
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 10; k++ {
		r, err := fresh.DMM(k)
		if err != nil {
			t.Fatalf("dmm(%d) under injected ILP fault: %v", k, err)
		}
		if !degrade.Sound(r.Value, exact[k]) {
			t.Fatalf("degraded dmm(%d) = %d < exact %d", k, r.Value, exact[k])
		}
		if r.Quality.Quality == degrade.Exact && r.Trivial == "" {
			t.Fatalf("ILP-path dmm(%d) kept Exact quality under injected fault", k)
		}
		if r.Quality.Degraded() && r.Quality.Budget != degrade.BudgetInjected {
			t.Errorf("dmm(%d) budget = %q, want %q", k, r.Quality.Budget, degrade.BudgetInjected)
		}
	}
	// Disarm: the same artifact answers exactly again — query-time
	// degradation must not taint it.
	faultinject.Disarm()
	for k := int64(1); k <= 10; k++ {
		r, err := fresh.DMM(k)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != exact[k] {
			t.Fatalf("post-fault dmm(%d) = %d, want exact %d", k, r.Value, exact[k])
		}
		if r.Quality.Degraded() {
			t.Fatalf("post-fault dmm(%d) still tagged %+v", k, r.Quality)
		}
	}
	_ = an
}

// TestWithoutAllowFaultsStillFail: the ladder is opt-in — without
// Degrade.Allow an injected divergence is a hard error, preserving the
// historical contract.
func TestWithoutAllowFaultsStillFail(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget},
	}); err != nil {
		t.Fatal(err)
	}
	sys := casestudy.New()
	if _, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{}); err == nil {
		t.Fatal("injected divergence succeeded without Degrade.Allow")
	}
}

// TestDegradedBreakpoints: the sweep works on a degraded artifact and
// stays on the omega-sum rung.
func TestDegradedBreakpoints(t *testing.T) {
	faultinject.Disarm()
	sys := casestudy.New()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"),
		twca.Options{MaxCombinations: 1, Degrade: degrade.Policy{Allow: true}})
	if err != nil {
		t.Fatal(err)
	}
	bps, err := an.Breakpoints(degradeMaxK)
	if err != nil {
		t.Fatal(err)
	}
	if len(bps) == 0 {
		t.Fatal("degraded sweep returned no breakpoints")
	}
	last := int64(-1)
	for _, r := range bps {
		if r.Value <= last {
			t.Errorf("breakpoints not strictly increasing: %d after %d at k=%d", r.Value, last, r.K)
		}
		last = r.Value
		if !r.Quality.Degraded() && r.Trivial != "schedulable" {
			t.Errorf("degraded sweep emitted exact-tagged result at k=%d: %+v", r.K, r.Quality)
		}
	}
}

package latency_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/curves"
	"repro/internal/degrade"
	"repro/internal/gen"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/segments"
)

// checkCertificate analyzes info under the degradation ladder and fail
// hard, and checks the ladder's answer against the fail-hard search: the
// search's own result when it closes a window, TrivialResult(fixed-point)
// when it fails with ErrKExceeded or ErrDiverged. Where the long-run-load
// certificate fires, the search must fail that way. It reports whether
// the certificate fired.
func checkCertificate(t *testing.T, label string, info *segments.Info, pol string, excl bool) bool {
	t.Helper()
	_, fired := policy.Overloaded(info, excl)
	hard := latency.Options{Policy: pol, ExcludeOverload: excl}
	soft := hard
	soft.Degrade = degrade.Policy{Allow: true}
	got, err := latency.AnalyzeInfo(info, soft)
	if err != nil {
		t.Fatalf("%s: ladder: %v", label, err)
	}
	want, herr := latency.AnalyzeInfo(info, hard)
	switch {
	case herr == nil:
		if fired {
			t.Fatalf("%s: certificate fired, but the search closed a window at K=%d", label, want.K)
		}
	case errors.Is(herr, latency.ErrKExceeded), errors.Is(herr, latency.ErrDiverged):
		want = latency.TrivialResult(info, degrade.BudgetFixedPoint)
		want.Policy = policy.Canonical(pol)
	default:
		t.Fatalf("%s: fail-hard search: %v", label, herr)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s (certificate fired: %v): ladder result\n%s\nwant\n%s", label, fired, gj, wj)
	}
	return fired
}

// TestOverloadCertificateDifferential is the differential oracle of the
// ladder's overload certificate on generated systems across policies,
// structures and overload exclusion: wherever it fires, the fail-hard
// busy-window search must fail with ErrKExceeded or ErrDiverged, and the
// ladder's answer must be JSON-identical to the Lemma-3 floor that
// search would have degraded to. Elsewhere the ladder must return the
// search's result.
func TestOverloadCertificateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1223))
	var fired, analyses int
	for trial := 0; trial < 60; trial++ {
		sys, err := gen.Random(rng, gen.Params{
			Chains:         1 + rng.Intn(4),
			OverloadChains: []int{-1, 1, 2}[rng.Intn(3)],
			Utilization:    0.5 + 0.9*rng.Float64(),
			AsyncFraction:  0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sys.RegularChains() {
			for _, name := range []string{policy.SPP, policy.EDF, policy.NPSPP} {
				pol, err := policy.AnalyzerFor(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, flat := range []bool{false, true} {
					if flat && name != policy.SPP {
						continue // the other policies are always flat
					}
					info := pol.Structure(sys, c, flat)
					for _, excl := range []bool{false, true} {
						analyses++
						if checkCertificate(t, sys.Name+"/"+c.Name+"/"+name, info, name, excl) {
							fired++
						}
					}
				}
			}
		}
	}
	if fired < 300 || analyses-fired < 300 {
		t.Fatalf("certificate fired on %d of %d analyses; the oracle needs several hundred of each kind", fired, analyses)
	}
	t.Logf("certificate fired on %d of %d analyses", fired, analyses)
}

// loadChain is a one-task chain with the given activation and WCET.
func loadChain(name string, prio int, act curves.EventModel, wcet curves.Time) *model.Chain {
	return &model.Chain{
		Name:       name,
		Tasks:      []model.Task{{Name: name + ".t", Priority: prio, WCET: wcet}},
		Activation: act,
		Deadline:   1000,
	}
}

// TestOverloadCertificateEdgeCases walks the boundaries of the
// certificate on flat structures: where it must stay silent (a load of
// exactly 1, an idle target, slopes it does not know) and where it must
// fire, each case also checked against the fail-hard search.
func TestOverloadCertificateEdgeCases(t *testing.T) {
	trace, err := curves.NewTrace([]curves.Time{0, 10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	burst := curves.NewBurst(100, 2, 10)
	sum := curves.NewSum(curves.NewPeriodic(100), curves.NewPeriodic(100))
	overload := loadChain("over", 1, curves.NewSporadic(50), 60)
	overload.Overload, overload.Deadline = true, 0

	tests := []struct {
		name   string
		target *model.Chain
		others []*model.Chain
		excl   bool
		fire   bool
	}{
		{"load exactly 1", loadChain("b", 9, curves.NewPeriodic(10), 5),
			[]*model.Chain{loadChain("i", 8, curves.NewPeriodic(10), 5)}, false, false},
		{"load just above 1", loadChain("b", 9, curves.NewPeriodic(10), 5),
			[]*model.Chain{loadChain("i", 8, curves.NewPeriodic(1000), 501)}, false, true},
		// Validate rejects WCET 0; an unvalidated literal with an idle
		// target closes its window at w = 0 whatever interferes.
		{"idle target (C_b = 0)", loadChain("b", 9, curves.NewPeriodic(10), 0),
			[]*model.Chain{loadChain("i", 8, curves.NewPeriodic(10), 20)}, false, false},
		{"target DMin > Period, below 1", loadChain("b", 9, curves.Periodic{Period: 10, DMin: 20}, 15), nil, false, false},
		{"target DMin > Period, above 1", loadChain("b", 9, curves.Periodic{Period: 10, DMin: 20}, 25), nil, false, true},
		{"interferer DMin > Period, below 1", loadChain("b", 9, curves.NewPeriodic(100), 50),
			[]*model.Chain{loadChain("i", 8, curves.Periodic{Period: 10, DMin: 100}, 40)}, false, false},
		{"jittered, below 1", loadChain("b", 9, curves.NewJittered(curves.NewPeriodic(100), 250), 40),
			[]*model.Chain{loadChain("i", 8, curves.NewJittered(curves.NewSporadic(100), 40), 50)}, false, false},
		{"jittered, above 1", loadChain("b", 9, curves.NewJittered(curves.NewPeriodic(100), 250), 60),
			[]*model.Chain{loadChain("i", 8, curves.NewJittered(curves.NewSporadic(100), 40), 50)}, false, true},
		{"burst target", loadChain("b", 9, burst, 80), nil, false, false},
		{"trace target", loadChain("b", 9, trace, 15), nil, false, false},
		{"sum target", loadChain("b", 9, sum, 60), nil, false, false},
		{"burst, trace and sum interferers add nothing", loadChain("b", 9, curves.NewPeriodic(100), 60),
			[]*model.Chain{loadChain("i1", 8, burst, 80), loadChain("i2", 7, trace, 15), loadChain("i3", 6, sum, 60)}, false, false},
		{"known interferers still count beside unknown ones", loadChain("b", 9, curves.NewPeriodic(100), 60),
			[]*model.Chain{loadChain("i1", 8, burst, 80), loadChain("i2", 7, curves.NewSporadic(100), 50)}, false, true},
		{"overload chain pushes the load over 1", loadChain("b", 9, curves.NewPeriodic(100), 30),
			[]*model.Chain{overload}, false, true},
		{"overload chain excluded", loadChain("b", 9, curves.NewPeriodic(100), 30),
			[]*model.Chain{overload}, true, false},
	}
	for _, tc := range tests {
		sys := &model.System{Name: tc.name, Chains: append([]*model.Chain{tc.target}, tc.others...)}
		info := segments.AnalyzeFlat(sys, tc.target)
		if fired := checkCertificate(t, tc.name, info, "", tc.excl); fired != tc.fire {
			t.Errorf("%s: certificate fired = %v, want %v", tc.name, fired, tc.fire)
		}
	}
}

// TestOverloadCertificateTrace checks the one diagnostic line the
// certificate prints in place of the busy-window search's trace.
func TestOverloadCertificateTrace(t *testing.T) {
	sys := &model.System{Name: "trace", Chains: []*model.Chain{
		loadChain("b", 9, curves.NewPeriodic(100), 60),
		loadChain("i", 8, curves.NewPeriodic(100), 65),
	}}
	var out strings.Builder
	opts := latency.Options{Trace: &out, Degrade: degrade.Policy{Allow: true}}
	r, err := latency.AnalyzeInfo(segments.AnalyzeFlat(sys, sys.Chains[0]), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quality.Budget != degrade.BudgetFixedPoint {
		t.Errorf("quality = %+v, want the fixed-point budget", r.Quality)
	}
	if want := "latency: b: long-run load ≥ 1.250000 > 1: busy window never closes\n"; out.String() != want {
		t.Errorf("trace = %q, want %q", out.String(), want)
	}
}

package twca_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/twca"
)

func analyzeC(t *testing.T) *twca.Analysis {
	t.Helper()
	sys := casestudy.New()
	a, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCaseStudyCombinations reproduces the §VI discussion: the
// combination space of σc is {c̄1, c̄2, c̄3} with
// c̄1 = {(τ1a,τ2a)}, c̄2 = {(τ1b,τ2b,τ3b)}, c̄3 = c̄1 ∪ c̄2,
// and c̄3 (cost 50) is the only unschedulable combination.
func TestCaseStudyCombinations(t *testing.T) {
	a := analyzeC(t)
	if len(a.Combinations) != 3 {
		t.Fatalf("|combinations| = %d, want 3: %v", len(a.Combinations), a.Combinations)
	}
	if !a.TypicalSchedulable {
		t.Fatal("typical system must be schedulable")
	}
	if a.MinSlack != 34 {
		t.Errorf("MinSlack = %d, want 34 (δ-(1)+D−L(1) = 200−166)", a.MinSlack)
	}
	if len(a.Unschedulable) != 1 {
		t.Fatalf("|U| = %d, want 1: %v", len(a.Unschedulable), a.Unschedulable)
	}
	u := a.Unschedulable[0]
	if u.Cost != 50 {
		t.Errorf("unschedulable combination cost = %d, want 50", u.Cost)
	}
	if got := u.String(); got != "{(tau1b,tau2b,tau3b),(tau1a,tau2a)}" &&
		got != "{(tau1a,tau2a),(tau1b,tau2b,tau3b)}" {
		t.Errorf("unschedulable combination = %s", got)
	}
}

// TestTableII reproduces the reproducible part of Table II: the paper's
// own formulas give dmm_c(3) = 3 via Ω^a_c = Ω^b_c = 3 and N_c = 1.
// (The paper's later breakpoints k=76/250 are not derivable from the
// disclosed activation models — see EXPERIMENTS.md; with Lemma 4 applied
// literally the DMM reaches 4 at k=7 and 5 at k=10.)
func TestTableII(t *testing.T) {
	a := analyzeC(t)
	r, err := a.DMM(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 3 {
		t.Errorf("dmm_c(3) = %d, want 3", r.Value)
	}
	// Sorted by name, although the system lists σb before σa.
	if want := []twca.OmegaEntry{{Name: "sigma_a", Value: 3}, {Name: "sigma_b", Value: 3}}; !slices.Equal(r.Omega, want) {
		t.Errorf("Ω = %v, want %v", r.Omega, want)
	}
	if r.Trivial != "" {
		t.Errorf("expected the ILP to run, got trivial result %q", r.Trivial)
	}
}

// TestDMMCurve pins the full DMM curve of σc under the literal Lemma 4
// model, including the k-clamp for small k.
func TestDMMCurve(t *testing.T) {
	a := analyzeC(t)
	want := map[int64]int64{
		1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 3, 7: 4, 8: 4, 9: 4, 10: 5,
	}
	for k, w := range want {
		r, err := a.DMM(k)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != w {
			t.Errorf("dmm_c(%d) = %d, want %d", k, r.Value, w)
		}
	}
}

func TestBreakpoints(t *testing.T) {
	a := analyzeC(t)
	bps, err := a.Breakpoints(12)
	if err != nil {
		t.Fatal(err)
	}
	type bp struct{ k, v int64 }
	var got []bp
	for _, r := range bps {
		got = append(got, bp{r.K, r.Value})
	}
	want := []bp{{1, 1}, {2, 2}, {3, 3}, {7, 4}, {10, 5}}
	if len(got) != len(want) {
		t.Fatalf("breakpoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("breakpoints = %v, want %v", got, want)
		}
	}
}

// TestOmegaSlab: Curve and Breakpoints carve every result's Ω from one
// slab. Each must equal what DMM reports for its k, and appending to one
// must leave the next untouched.
func TestOmegaSlab(t *testing.T) {
	a := analyzeC(t)
	curve, err := a.Curve([]int64{1, 3, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	bps, err := a.Breakpoints(260)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range [][]twca.DMMResult{curve, bps} {
		for i, r := range rs {
			want, err := a.DMM(r.K)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.Omega, want.Omega) || len(r.Omega) != 2 {
				t.Errorf("k=%d: Ω %v, DMM reports %v", r.K, r.Omega, want.Omega)
			}
			if i+1 < len(rs) {
				next := slices.Clone(rs[i+1].Omega)
				_ = append(r.Omega, twca.OmegaEntry{Name: "appended"})
				if !slices.Equal(rs[i+1].Omega, next) {
					t.Errorf("k=%d: appending to its Ω changed the next result's to %v", r.K, rs[i+1].Omega)
				}
			}
		}
	}
}

// TestDMMMonotone: dmm(k) must be non-decreasing and never exceed k.
func TestDMMMonotone(t *testing.T) {
	a := analyzeC(t)
	var prev int64
	for k := int64(1); k <= 40; k++ {
		r, err := a.DMM(k)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value < prev {
			t.Errorf("dmm(%d) = %d < dmm(%d) = %d", k, r.Value, k-1, prev)
		}
		if r.Value > k {
			t.Errorf("dmm(%d) = %d exceeds k", k, r.Value)
		}
		prev = r.Value
	}
}

// TestSigmaDSchedulable: Table II states σd needs no DMM — it is
// schedulable even under full overload.
func TestSigmaDSchedulable(t *testing.T) {
	sys := casestudy.New()
	a, err := twca.New(sys, sys.ChainByName("sigma_d"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.DMM(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 || r.Trivial != "schedulable" {
		t.Errorf("dmm_d(10) = %d (%q), want 0 (schedulable)", r.Value, r.Trivial)
	}
}

// TestTypicalUnschedulable: when the system misses deadlines without any
// overload, the DMM degenerates to k.
func TestTypicalUnschedulable(t *testing.T) {
	b := model.NewBuilder("bad")
	b.Chain("victim").Periodic(100).Deadline(10).Task("v", 1, 20)
	b.Chain("irq").Sporadic(1000).Overload().Task("i", 2, 1)
	sys := b.MustBuild()
	a, err := twca.New(sys, sys.ChainByName("victim"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TypicalSchedulable {
		t.Fatal("victim should be typically unschedulable")
	}
	r, err := a.DMM(7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 7 || r.Trivial != "typical-unschedulable" {
		t.Errorf("dmm(7) = %d (%q), want 7 (typical-unschedulable)", r.Value, r.Trivial)
	}
}

// TestNoUnschedulableCombination: overload exists but is too cheap to
// cause a miss; the full busy-window analysis alone would claim misses
// (η ≥ 2 overload activations per window), while the combination
// criterion (one activation per window, §V) proves none.
func TestNoUnschedulableCombination(t *testing.T) {
	b := model.NewBuilder("cheap")
	b.Chain("victim").Periodic(100).Deadline(50).Task("v", 1, 30)
	b.Chain("irq").Sporadic(40).Overload().Task("i", 2, 15)
	sys := b.MustBuild()
	a, err := twca.New(sys, sys.ChainByName("victim"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.TypicalSchedulable {
		t.Fatal("victim must be typically schedulable")
	}
	// One irq (15) fits in the slack (50-30=20): schedulable combo.
	if len(a.Unschedulable) != 0 {
		t.Fatalf("U = %v, want empty", a.Unschedulable)
	}
	r, err := a.DMM(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 || r.Trivial != "no-unschedulable-combination" {
		t.Errorf("dmm = %d (%q), want 0", r.Value, r.Trivial)
	}
}

func TestDMMWindow(t *testing.T) {
	a := analyzeC(t)
	// A 2000-long interval holds η+(2000) = 10 activations of σc:
	// dmm over it equals dmm(10) = 5.
	r, err := a.DMMWindow(2000)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 10 || r.Value != 5 {
		t.Errorf("DMMWindow(2000) = (k=%d, %d), want (10, 5)", r.K, r.Value)
	}
	// An empty interval has no activations and no misses.
	r, err = a.DMMWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 0 || r.Value != 0 {
		t.Errorf("DMMWindow(0) = (k=%d, %d), want (0, 0)", r.K, r.Value)
	}
}

func TestErrors(t *testing.T) {
	sys := casestudy.New()
	if _, err := twca.New(sys, sys.ChainByName("sigma_a"), twca.Options{}); err == nil {
		t.Error("New accepted an overload target")
	}
	noDL := sys.Clone()
	noDL.ChainByName("sigma_c").Deadline = 0
	if _, err := twca.New(noDL, noDL.ChainByName("sigma_c"), twca.Options{}); !errors.Is(err, twca.ErrNoDeadline) {
		t.Errorf("err = %v, want ErrNoDeadline", err)
	}
	a := analyzeC(t)
	if _, err := a.DMM(0); err == nil {
		t.Error("DMM(0) accepted")
	}
	if _, err := a.DMM(-3); err == nil {
		t.Error("DMM(-3) accepted")
	}
}

func TestCombinationLimit(t *testing.T) {
	sys := casestudy.New()
	_, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{MaxCombinations: 2})
	if !errors.Is(err, twca.ErrTooManyCombinations) {
		t.Errorf("err = %v, want ErrTooManyCombinations", err)
	}
}

func TestWeaklyHard(t *testing.T) {
	a := analyzeC(t)
	ok, err := a.WeaklyHard(3, 3)
	if err != nil || !ok {
		t.Errorf("(3,3)-constraint: %v %v, want satisfied", ok, err)
	}
	ok, err = a.WeaklyHard(2, 3)
	if err != nil || ok {
		t.Errorf("(2,3)-constraint: %v %v, want violated", ok, err)
	}
}

// TestBaselineAblation: the structure-blind baseline is strictly more
// pessimistic on σd — it cannot prove schedulability under overload
// (WCL_flat = 267 > 200) and reports dmm_d(10) = 4, while the
// chain-aware analysis proves dmm ≡ 0.
func TestBaselineAblation(t *testing.T) {
	sys := casestudy.New()
	base, err := twca.New(sys, sys.ChainByName("sigma_d"), twca.Options{Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	if !base.TypicalSchedulable {
		t.Error("flat baseline still proves σd typically schedulable (fixed point 166)")
	}
	if base.Latency.Schedulable {
		t.Error("flat baseline should fail to prove σd schedulable under overload")
	}
	r, err := base.DMM(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 4 {
		t.Errorf("baseline dmm_d(10) = %d, want 4", r.Value)
	}
	// Chain-aware analysis: dmm ≡ 0.
	aware, err := twca.New(sys, sys.ChainByName("sigma_d"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := aware.DMM(10)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Value != 0 {
		t.Errorf("chain-aware dmm_d(10) = %d, want 0", ra.Value)
	}
	// On σc both views agree (all chains already interfere arbitrarily):
	// same latency, same DMM.
	baseC, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	if baseC.Latency.WCL != 331 {
		t.Errorf("baseline WCL_c = %d, want 331", baseC.Latency.WCL)
	}
	rc, err := baseC.DMM(3)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Value != 3 {
		t.Errorf("baseline dmm_c(3) = %d, want 3", rc.Value)
	}
}

// TestBaselineIsNeverTighter compares baseline and chain-aware DMMs over
// random priority permutations: flat must always be ≥ chain-aware.
func TestBaselineIsNeverTighter(t *testing.T) {
	perms := [][]int{
		{13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{1, 3, 5, 7, 9, 11, 13, 2, 4, 6, 8, 10, 12},
		{2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 13},
		{6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 11, 12, 13},
	}
	for _, perm := range perms {
		sys, err := casestudy.WithPriorities(perm)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"sigma_c", "sigma_d"} {
			aware, err := twca.New(sys, sys.ChainByName(name), twca.Options{})
			if err != nil {
				continue // diverging assignments are fine to skip
			}
			base, err := twca.New(sys, sys.ChainByName(name), twca.Options{Flat: true})
			if err != nil {
				continue
			}
			ra, _ := aware.DMM(10)
			rb, _ := base.DMM(10)
			if rb.Value < ra.Value {
				t.Errorf("perm %v %s: baseline dmm=%d < chain-aware dmm=%d",
					perm, name, rb.Value, ra.Value)
			}
			if base.Latency.WCL < aware.Latency.WCL {
				t.Errorf("perm %v %s: baseline WCL=%d < chain-aware WCL=%d",
					perm, name, base.Latency.WCL, aware.Latency.WCL)
			}
		}
	}
}

// TestBaselineLatencySigmaD pins the flat busy-window value that makes
// the ablation meaningful: treating σc as arbitrarily interfering
// inflates B_d(1) from 175 to 267.
func TestBaselineLatencySigmaD(t *testing.T) {
	sys := casestudy.New()
	base, err := twca.New(sys, sys.ChainByName("sigma_d"), twca.Options{
		Flat:    true,
		Latency: latency.Options{MaxQ: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Latency.BusyTimes[0] != 267 {
		t.Errorf("flat B_d(1) = %d, want 267 (115 + 2·51 + 20 + 30)", base.Latency.BusyTimes[0])
	}
}

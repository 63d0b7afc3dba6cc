package twca_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/gen"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/twca"
)

// TestSweepCacheEquivalence pins the memoized DMM sweep against the
// cache-free path on the case study: Breakpoints and the dense curve
// must agree point-for-point, including exactness.
func TestSweepCacheEquivalence(t *testing.T) {
	sys := casestudy.New()
	c := sys.ChainByName("sigma_c")
	cached, err := twca.New(sys, c, twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := twca.New(sys, c, twca.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	bc, err := cached.Breakpoints(260)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := fresh.Breakpoints(260)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc) != len(bf) {
		t.Fatalf("breakpoint counts differ: cached %d, nocache %d", len(bc), len(bf))
	}
	for i := range bc {
		if bc[i].K != bf[i].K || bc[i].Value != bf[i].Value || bc[i].Exact != bf[i].Exact {
			t.Errorf("breakpoint %d differs: cached (k=%d,%d,exact=%v) vs nocache (k=%d,%d,exact=%v)",
				i, bc[i].K, bc[i].Value, bc[i].Exact, bf[i].K, bf[i].Value, bf[i].Exact)
		}
	}
	for k := int64(1); k <= 40; k++ {
		rc, err := cached.DMM(k)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := fresh.DMM(k)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Value != rf.Value || rc.Exact != rf.Exact {
			t.Errorf("dmm(%d): cached (%d, exact=%v) vs nocache (%d, exact=%v)",
				k, rc.Value, rc.Exact, rf.Value, rf.Exact)
		}
	}
}

// TestSweepCacheEquivalenceFuzzed repeats the equivalence check on
// randomly generated systems: every analyzable deadline chain must
// produce the same dmm curve with and without the memo cache.
func TestSweepCacheEquivalenceFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lopts := latency.Options{MaxQ: 256, Horizon: 1 << 24}
	checked := 0
	for trial := 0; trial < 25; trial++ {
		sys, err := gen.Random(rng, gen.Params{
			Chains:         2 + rng.Intn(3),
			OverloadChains: 1 + rng.Intn(2),
			Utilization:    0.5 + 0.3*rng.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sys.RegularChains() {
			if c.Deadline == 0 {
				continue
			}
			cached, err := twca.New(sys, c, twca.Options{Latency: lopts})
			if err != nil {
				continue // diverged or blown up: nothing to compare
			}
			fresh, err := twca.New(sys, c, twca.Options{Latency: lopts, NoCache: true})
			if err != nil {
				t.Fatalf("trial %d %s: nocache analysis failed where cached succeeded: %v",
					trial, c.Name, err)
			}
			for k := int64(1); k <= 25; k++ {
				rc, err1 := cached.DMM(k)
				rf, err2 := fresh.DMM(k)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("trial %d %s dmm(%d): error mismatch %v vs %v", trial, c.Name, k, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if rc.Value != rf.Value || rc.Exact != rf.Exact {
					t.Errorf("trial %d %s dmm(%d): cached (%d, exact=%v) vs nocache (%d, exact=%v)",
						trial, c.Name, k, rc.Value, rc.Exact, rf.Value, rf.Exact)
				}
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d chains analyzable; fuzz coverage too thin", checked)
	}
}

// TestGroupMaskOverflowGuard: a parent segment with more than 62 active
// segments would overflow chainOptions' subset counter; the analysis
// must take the ErrTooManyCombinations path instead of wrapping a
// shift.
func TestGroupMaskOverflowGuard(t *testing.T) {
	b := model.NewBuilder("wide")
	// Victim priorities 1 (head) and 100 (tail): every overload task
	// with priority in (1, 100] qualifies for the segment (> lowest) but
	// starts a new active segment (≤ tail), giving one active segment
	// per overload task under a single parent.
	b.Chain("victim").Periodic(10_000).Deadline(10_000).
		Task("v_head", 1, 1).
		Task("v_tail", 100, 1)
	ovl := b.Chain("ovl").Sporadic(100_000).Overload()
	for i := 0; i < 63; i++ {
		ovl.Task(fmt.Sprintf("o%02d", i), 2+i, 1)
	}
	sys := b.MustBuild()
	_, err := twca.New(sys, sys.ChainByName("victim"), twca.Options{MaxCombinations: 1 << 30})
	if !errors.Is(err, twca.ErrTooManyCombinations) {
		t.Fatalf("err = %v, want ErrTooManyCombinations", err)
	}
}

// TestOmegaUnbounded: a sporadically activated target has unbounded
// δ+, so Ω^a_b saturates at OmegaUnbounded and only the k-clamp keeps
// the DMM capacities finite — the query must still succeed with a
// value bounded by k.
func TestOmegaUnbounded(t *testing.T) {
	b := model.NewBuilder("sporadic-target")
	b.Chain("victim").Sporadic(100).Deadline(90).Task("v", 1, 30)
	b.Chain("irq").Sporadic(70).Overload().Task("i", 2, 25)
	sys := b.MustBuild()
	an, err := twca.New(sys, sys.ChainByName("victim"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	irq := sys.ChainByName("irq")
	if got := an.Omega(irq, 5); got != twca.OmegaUnbounded {
		t.Fatalf("Omega(irq, 5) = %d, want OmegaUnbounded", got)
	}
	r, err := an.DMM(5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []twca.OmegaEntry{{Name: "irq", Value: twca.OmegaUnbounded}}; !slices.Equal(r.Omega, want) {
		t.Errorf("reported Ω = %v, want %v", r.Omega, want)
	}
	if r.Value < 0 || r.Value > 5 {
		t.Errorf("dmm(5) = %d, want within [0, 5]", r.Value)
	}
}

// TestDMMWindowTrivialNoActivations: an interval too short for any
// activation must short-circuit to an exact zero with the dedicated
// trivial reason, without touching the ILP.
func TestDMMWindowTrivialNoActivations(t *testing.T) {
	a := analyzeC(t)
	for _, dt := range []curves.Time{0, -5} {
		r, err := a.DMMWindow(dt)
		if err != nil {
			t.Fatal(err)
		}
		if r.K != 0 || r.Value != 0 || !r.Exact || r.Trivial != "no-activations" {
			t.Errorf("DMMWindow(%d) = (k=%d, %d, exact=%v, %q), want (0, 0, true, no-activations)",
				dt, r.K, r.Value, r.Exact, r.Trivial)
		}
	}
}

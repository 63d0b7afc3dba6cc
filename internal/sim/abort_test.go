package sim_test

import (
	"testing"

	"repro/internal/casestudy"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestAbortOnMissCancelsAtDeadline: a chain that needs 30 against a
// deadline of 20 is cut off exactly at the deadline instant.
func TestAbortOnMissCancelsAtDeadline(t *testing.T) {
	b := model.NewBuilder("abort")
	b.Chain("x").Periodic(100).Deadline(20).Task("t", 1, 30)
	sys := b.MustBuild()
	res, err := sim.Run(sys, sim.Config{Horizon: 1000, AbortOnMiss: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Chains["x"]
	if st.Completions != 0 {
		t.Errorf("completions = %d, want 0 (every instance expires)", st.Completions)
	}
	if st.Aborts != 10 || st.Misses != 10 {
		t.Errorf("aborts/misses = %d/%d, want 10/10", st.Aborts, st.Misses)
	}
	// Each instance ran exactly 20 (to its deadline): busy = 10 × 20.
	if got := res.Trace.Busy(); got != 200 {
		t.Errorf("busy = %d, want 200", got)
	}
	// Without aborting, all complete and busy is 10 × 30.
	plain, err := sim.Run(sys, sim.Config{Horizon: 1000, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Chains["x"].Completions != 10 || plain.Trace.Busy() != 300 {
		t.Errorf("deadline-agnostic run changed: %d completions, busy %d",
			plain.Chains["x"].Completions, plain.Trace.Busy())
	}
}

// TestAbortShedsLoadForOthers: cancelling an expired high-priority
// instance frees the processor, so a low-priority chain's worst latency
// can only improve relative to the deadline-agnostic run.
func TestAbortShedsLoadForOthers(t *testing.T) {
	b := model.NewBuilder("shed")
	b.Chain("greedy").Periodic(100).Deadline(30).Task("g", 2, 60)
	b.Chain("meek").Periodic(100).Deadline(100).Task("m", 1, 20)
	sys := b.MustBuild()
	agnostic, err := sim.Run(sys, sim.Config{Horizon: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	abort, err := sim.Run(sys, sim.Config{Horizon: 10_000, AbortOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	ag, ab := agnostic.Chains["meek"].MaxLatency, abort.Chains["meek"].MaxLatency
	if ab > ag {
		t.Errorf("abort-on-miss worsened meek: %d > %d", ab, ag)
	}
	// Concretely: greedy runs 60 then meek 20 → 80 agnostic; with abort
	// greedy stops at 30 → meek done at 50.
	if ag != 80 || ab != 50 {
		t.Errorf("latencies = %d/%d, want 80/50", ag, ab)
	}
	if abort.Chains["greedy"].Aborts == 0 {
		t.Error("greedy should be aborted")
	}
}

// TestAbortSynchronousReleasesQueue: cancelling a synchronous chain's
// instance lets the queued activation start at the abort instant.
func TestAbortSynchronousReleasesQueue(t *testing.T) {
	b := model.NewBuilder("queue")
	b.Chain("x").Synchronous().Periodic(10).Deadline(15).Task("t", 1, 12)
	sys := b.MustBuild()
	res, err := sim.Run(sys, sim.Config{Horizon: 100, AbortOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Chains["x"]
	// Instance 1 completes at 12 (latency 12 ≤ 15). Instance 2 (arrival
	// 10) starts at 12, expires at 25 (ran 12..25 part of 12 needed =
	// 12? it needs 12, would finish 24 < 25 — completes at 24, latency
	// 14). The exact pattern alternates; just require both outcomes
	// occur and accounting is consistent.
	if st.Aborts == 0 {
		t.Error("expected some aborts")
	}
	if st.Completions == 0 {
		t.Error("expected some completions")
	}
	if st.Completions+st.Aborts != st.Activations {
		t.Errorf("activations %d != completions %d + aborts %d",
			st.Activations, st.Completions, st.Aborts)
	}
}

// TestAbortCaseStudySoundness: aborting only sheds load, so observed
// latencies of completed instances stay within the deadline-agnostic
// analysis bounds.
func TestAbortCaseStudySoundness(t *testing.T) {
	sys := casestudy.New()
	res, err := sim.Run(sys, sim.Config{Horizon: 100_000, AbortOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Chains["sigma_d"].MaxLatency; got > 175 {
		t.Errorf("σd latency %d > 175 under abort-on-miss", got)
	}
	if got := res.Chains["sigma_c"].MaxLatency; got > 200 {
		t.Errorf("completed σc instance exceeded its deadline: %d (should have been aborted)", got)
	}
}

func TestAbortOnMissRejectedByMultiEngine(t *testing.T) {
	sys := casestudy.New()
	if _, err := sim.Run(sys, sim.Config{AbortOnMiss: true, Mapping: map[string]string{"tau1c": "cpu"}}); err == nil {
		t.Error("multi engine accepted AbortOnMiss")
	}
}

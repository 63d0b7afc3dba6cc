package faultinject

import (
	"errors"
	"testing"
	"time"
)

// The harness is process-global, so every test re-arms and disarms; the
// package's tests must not use t.Parallel().

func TestDisarmedFastPath(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("Armed() after Disarm")
	}
	for _, p := range Points {
		if f := At(p); f != nil {
			t.Fatalf("At(%s) = %+v while disarmed", p, f)
		}
	}
	if FireCounts() != nil {
		t.Error("FireCounts non-nil while disarmed")
	}
}

func TestEveryIsDeterministic(t *testing.T) {
	defer Disarm()
	if err := Configure([]Rule{{Point: PointILPBranch, Action: ActionError, Every: 3}}); err != nil {
		t.Fatal(err)
	}
	var pattern []bool
	for i := 0; i < 12; i++ {
		pattern = append(pattern, At(PointILPBranch) != nil)
	}
	for i, fired := range pattern {
		want := (i+1)%3 == 0
		if fired != want {
			t.Errorf("arrival %d: fired=%v, want %v", i+1, fired, want)
		}
	}
	if got := FireCounts()[PointILPBranch]; got != 4 {
		t.Errorf("fired %d times, want 4", got)
	}
}

func TestSeededPatternIsReproducible(t *testing.T) {
	defer Disarm()
	run := func() []bool {
		if err := Configure([]Rule{{Point: PointBusyWindow, Action: ActionError, Every: 4, Seed: 99}}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = At(PointBusyWindow) != nil
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical runs", i+1)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Errorf("seeded 1-in-4 pattern fired %d/%d times — not scattered", fires, len(a))
	}
}

func TestTimesCap(t *testing.T) {
	defer Disarm()
	if err := Configure([]Rule{{Point: PointWorkerTask, Action: ActionError, Times: 2}}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 10; i++ {
		if At(PointWorkerTask) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("fired %d times, want 2 (Times cap)", fired)
	}
	if got := FireCounts()[PointWorkerTask]; got != 2 {
		t.Errorf("FireCounts = %d, want 2", got)
	}
}

func TestApplyActions(t *testing.T) {
	errFault := &Fault{Point: PointServiceCache, Action: ActionError}
	if err := errFault.Apply(); !errors.Is(err, ErrInjected) {
		t.Errorf("error action: %v does not wrap ErrInjected", err)
	}
	budget := &Fault{Point: PointILPBranch, Action: ActionBudget}
	if !budget.Budget() {
		t.Error("budget action: Budget() false")
	}
	if err := budget.Apply(); err != nil {
		t.Errorf("budget Apply: %v", err)
	}
	delay := &Fault{Point: PointBusyWindow, Action: ActionDelay, Delay: time.Millisecond}
	if err := delay.Apply(); err != nil {
		t.Errorf("delay Apply: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic action did not panic")
			}
		}()
		(&Fault{Point: PointWorkerTask, Action: ActionPanic}).Apply()
	}()
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("parallel.worker.task:panic:every=7,ilp.branch:budget:seed=42:every=3, latency.busywindow:delay:delay=50ms:times=2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	if rules[0].Point != PointWorkerTask || rules[0].Action != ActionPanic || rules[0].Every != 7 {
		t.Errorf("rule 0: %+v", rules[0])
	}
	if rules[1].Seed != 42 || rules[1].Every != 3 || rules[1].Action != ActionBudget {
		t.Errorf("rule 1: %+v", rules[1])
	}
	if rules[2].Delay != 50*time.Millisecond || rules[2].Times != 2 {
		t.Errorf("rule 2: %+v", rules[2])
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"nonsense",                      // no action
		"bogus.point:error",             // unknown point
		"ilp.branch:frobnicate",         // unknown action
		"ilp.branch:error:every=0",      // zero rate
		"ilp.branch:error:every=x",      // non-numeric
		"ilp.branch:error:times=-1",     // negative cap
		"ilp.branch:delay:delay=later",  // bad duration
		"ilp.branch:error:unknownkey=1", // unknown key
		"ilp.branch:error:noequals",     // not key=value
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", spec)
		}
	}
}

func TestConfigureSpecAndDescribe(t *testing.T) {
	defer Disarm()
	if err := ConfigureSpec("service.cache:error:every=2"); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("not armed after ConfigureSpec")
	}
	if d := Describe(); d == "" || d == "faultinject: disarmed" {
		t.Errorf("Describe() = %q", d)
	}
	Disarm()
	if d := Describe(); d != "faultinject: disarmed" {
		t.Errorf("Describe() after Disarm = %q", d)
	}
}

func TestConfigureRejectsBadRules(t *testing.T) {
	if err := Configure([]Rule{{Point: "nope", Action: ActionError}}); err == nil {
		t.Error("unknown point accepted")
	}
	if err := Configure([]Rule{{Point: PointILPBranch, Action: "nope"}}); err == nil {
		t.Error("unknown action accepted")
	}
	if err := Configure([]Rule{{Point: PointILPBranch, Action: ActionError, Times: -1}}); err == nil {
		t.Error("negative times accepted")
	}
	if err := Configure([]Rule{{Point: PointILPBranch, Action: ActionDelay, Delay: -time.Second}}); err == nil {
		t.Error("negative delay accepted")
	}
}

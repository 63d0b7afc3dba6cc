package degrade

import (
	"encoding/json"
	"testing"
)

func TestQualityOrdering(t *testing.T) {
	// The lattice order is what Worse and every soundness argument rely
	// on: Exact < SafeUpperBound < Trivial.
	if !(Exact < SafeUpperBound && SafeUpperBound < Trivial) {
		t.Fatalf("lattice order broken: Exact=%d SafeUpperBound=%d Trivial=%d",
			Exact, SafeUpperBound, Trivial)
	}
	if Exact != 0 {
		t.Fatalf("zero value must be Exact (untagged legacy results), got %d", Exact)
	}
}

func TestQualityStrings(t *testing.T) {
	cases := map[Quality]string{
		Exact:          "exact",
		SafeUpperBound: "safe-upper-bound",
		Trivial:        "trivial",
	}
	for q, want := range cases {
		if got := q.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(q), got, want)
		}
	}
	if got := Quality(99).String(); got != "quality(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestQualityJSONRoundTrip(t *testing.T) {
	for _, q := range []Quality{Exact, SafeUpperBound, Trivial} {
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %v: %v", q, err)
		}
		var back Quality
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != q {
			t.Errorf("round trip %v → %s → %v", q, b, back)
		}
	}
	var q Quality
	if err := json.Unmarshal([]byte(`"bogus"`), &q); err == nil {
		t.Error("unmarshal of unknown quality succeeded")
	}
	if _, err := json.Marshal(Quality(42)); err == nil {
		t.Error("marshal of out-of-range quality succeeded")
	}
}

func TestInfoDegraded(t *testing.T) {
	if ExactInfo().Degraded() {
		t.Error("ExactInfo reports degraded")
	}
	if !(Info{Quality: SafeUpperBound}).Degraded() {
		t.Error("SafeUpperBound not degraded")
	}
	if !(Info{Quality: Trivial}).Degraded() {
		t.Error("Trivial not degraded")
	}
}

func TestWorse(t *testing.T) {
	ex := ExactInfo()
	ub := Info{Quality: SafeUpperBound, Budget: BudgetCombinations, Rung: RungOmegaSum}
	tr := Info{Quality: Trivial, Budget: BudgetFixedPoint, Rung: RungLemma3}
	if got := Worse(ex, ub); got != ub {
		t.Errorf("Worse(exact, upper) = %+v", got)
	}
	if got := Worse(tr, ub); got != tr {
		t.Errorf("Worse(trivial, upper) = %+v", got)
	}
	// Ties keep the first operand's cause.
	other := Info{Quality: SafeUpperBound, Budget: BudgetDeadline, Rung: RungOmegaSum}
	if got := Worse(ub, other); got != ub {
		t.Errorf("tie did not keep first cause: %+v", got)
	}
}

// TestInfoReproducible pins the retention rule every cache of degraded
// results applies: budgets that depend only on the system and options
// are kept, a deadline, a node cap or an injected fault is not.
func TestInfoReproducible(t *testing.T) {
	for budget, want := range map[string]bool{
		"":                 true,
		BudgetFixedPoint:   true,
		BudgetCombinations: true,
		BudgetDeadline:     false,
		BudgetILPNodes:     false,
		BudgetInjected:     false,
		"unknown":          false,
	} {
		if got := (Info{Quality: SafeUpperBound, Budget: budget}).Reproducible(); got != want {
			t.Errorf("Reproducible(%q) = %v, want %v", budget, got, want)
		}
	}
	if !ExactInfo().Reproducible() {
		t.Error("an exact result is not reproducible")
	}
}

func TestSound(t *testing.T) {
	if !Sound(5, 3) || !Sound(3, 3) {
		t.Error("over-approximation reported unsound")
	}
	if Sound(2, 3) {
		t.Error("undercutting bound reported sound")
	}
}

package curves

import "testing"

// TestSlopeBoundsCurves checks the Slope contract on every form it
// knows: δ-(n) ≤ (n-1)·s and η+(w)·s ≥ w on a dense sample.
func TestSlopeBoundsCurves(t *testing.T) {
	models := []struct {
		m    EventModel
		want Time
	}{
		{NewPeriodic(100), 100},
		{NewPeriodicJitter(200, 450, 30), 200},
		{Periodic{Period: 100, Jitter: 20, DMin: 150}, 150}, // literal, DMin > Period
		{NewSporadic(600), 600},
		{NewJittered(NewSporadic(700), 90), 700},
		{NewJittered(Periodic{Period: 50, DMin: 80}, 500), 80},
		{NewJittered(NewJittered(NewPeriodic(30), 7), 11), 30},
	}
	for _, tc := range models {
		s, ok := Slope(tc.m)
		if !ok || s != tc.want {
			t.Errorf("Slope(%v) = %d, %v; want %d, true", tc.m, s, ok, tc.want)
			continue
		}
		for n := int64(1); n <= 300; n++ {
			if d := tc.m.DeltaMin(n); d > MulSat(s, n-1) {
				t.Errorf("%v: δ-(%d) = %d > (n-1)·s = %d", tc.m, n, d, MulSat(s, n-1))
			}
		}
		for w := Time(0); w <= 20*s; w += 1 + s/97 {
			if eta := tc.m.EtaPlus(w); MulSat(s, eta) < w {
				t.Errorf("%v: η+(%d) = %d < w/s = %d/%d", tc.m, w, eta, w, s)
			}
		}
	}
}

func TestSlopeUnknownForms(t *testing.T) {
	trace, err := NewTrace([]Time{0, 10, 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []EventModel{
		NewBurst(1000, 4, 50),
		NewJittered(NewBurst(1000, 4, 50), 10),
		trace,
		NewSum(NewPeriodic(100), NewSporadic(300)),
		Periodic{Period: 0},
		Periodic{Period: 100, Jitter: -5},
		Sporadic{MinDistance: 0},
		Jittered{Inner: NewPeriodic(100), Jitter: -1},
	} {
		if s, ok := Slope(m); ok {
			t.Errorf("Slope(%v) = %d, true; want unknown", m, s)
		}
	}
}

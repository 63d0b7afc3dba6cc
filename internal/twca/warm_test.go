package twca

import (
	"context"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/model"
)

// scaled returns a copy of sys with every WCET multiplied by num/1000,
// rounded up — the uniform-slack perturbation, monotone in num (the
// sensitivity package's ScaleWCET; re-implemented here because an
// in-package test cannot import sensitivity without a cycle).
func scaled(sys *model.System, num int64) *model.System {
	out := sys.Clone()
	for _, c := range out.Chains {
		for i := range c.Tasks {
			w := (c.Tasks[i].WCET*curves.Time(num) + 999) / 1000
			c.Tasks[i].WCET = w
			if c.Tasks[i].BCET > w {
				c.Tasks[i].BCET = w
			}
		}
	}
	return out
}

// TestWarmAnalysisMatchesCold: a warm-started analysis seeded from a
// demand-dominated neighbor (lower uniform scale) must be value-for-
// value identical to the cold analysis — busy times, L(q), MinSlack,
// the unschedulable combination set, and every DMM.
func TestWarmAnalysisMatchesCold(t *testing.T) {
	sys := casestudy.New()
	ctx := context.Background()
	for _, pair := range [][2]int64{{1000, 1010}, {1010, 1050}, {1000, 1050}} {
		nsys, psys := scaled(sys, pair[0]), scaled(sys, pair[1])
		neighbor, err := NewCtx(ctx, nsys, nsys.ChainByName("sigma_c"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Prime the neighbor's knapsack cache so incumbents are available.
		for k := int64(1); k <= 20; k++ {
			if _, err := neighbor.DMMCtx(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		cold, err := NewCtx(ctx, psys, psys.ChainByName("sigma_c"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := NewWarmCtx(ctx, psys, psys.ChainByName("sigma_c"), Options{}, &WarmStart{From: neighbor})
		if err != nil {
			t.Fatal(err)
		}

		if warm.MinSlack != cold.MinSlack || warm.TypicalSchedulable != cold.TypicalSchedulable {
			t.Fatalf("scale %v: warm (slack=%d, sched=%v) != cold (slack=%d, sched=%v)",
				pair, warm.MinSlack, warm.TypicalSchedulable, cold.MinSlack, cold.TypicalSchedulable)
		}
		if len(warm.L) != len(cold.L) {
			t.Fatalf("scale %v: warm has %d L values, cold %d", pair, len(warm.L), len(cold.L))
		}
		for q := range warm.L {
			if warm.L[q] != cold.L[q] {
				t.Fatalf("scale %v: L(%d): warm %d != cold %d", pair, q+1, warm.L[q], cold.L[q])
			}
		}
		for q := range cold.Latency.BusyTimes {
			if warm.Latency.BusyTimes[q] != cold.Latency.BusyTimes[q] {
				t.Fatalf("scale %v: B(%d): warm %d != cold %d", pair, q+1,
					warm.Latency.BusyTimes[q], cold.Latency.BusyTimes[q])
			}
		}
		if len(warm.Unschedulable) != len(cold.Unschedulable) {
			t.Fatalf("scale %v: warm has %d unschedulable combinations, cold %d",
				pair, len(warm.Unschedulable), len(cold.Unschedulable))
		}
		for i := range cold.Unschedulable {
			if !warm.Unschedulable[i].Mask.Equal(cold.Unschedulable[i].Mask) {
				t.Fatalf("scale %v: unschedulable[%d] masks differ", pair, i)
			}
		}
		for k := int64(1); k <= 30; k++ {
			wr, err := warm.DMMCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := cold.DMMCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if wr.Value != cr.Value || wr.Exact != cr.Exact || wr.Quality != cr.Quality {
				t.Fatalf("scale %v: dmm(%d): warm (%d, exact=%v, %+v) != cold (%d, exact=%v, %+v)",
					pair, k, wr.Value, wr.Exact, wr.Quality, cr.Value, cr.Exact, cr.Quality)
			}
		}
	}
}

// TestWarmTemplateAdoption: when the classified combination space
// coincides with the neighbor's, the constraint template is shared
// (same backing arrays), and the neighbor is wired in as the incumbent
// source.
func TestWarmTemplateAdoption(t *testing.T) {
	sys := casestudy.New()
	ctx := context.Background()
	neighbor, err := NewCtx(ctx, sys, sys.ChainByName("sigma_c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(neighbor.Unschedulable) == 0 {
		t.Skip("case study produced no unschedulable combinations; nothing to adopt")
	}
	psys := scaled(sys, 1000) // identity clone: combination space identical
	warm, err := NewWarmCtx(ctx, psys, psys.ChainByName("sigma_c"), Options{}, &WarmStart{From: neighbor})
	if err != nil {
		t.Fatal(err)
	}
	if warm.warmFrom != neighbor {
		t.Fatal("identity-clone warm analysis did not adopt the neighbor's template")
	}
	if len(warm.rows) == 0 || &warm.rows[0].Coeffs[0] != &neighbor.rows[0].Coeffs[0] {
		t.Error("adopted template does not share the neighbor's coefficient matrix")
	}
	if warm.tmpl == nil || warm.tmpl != neighbor.tmpl {
		t.Error("adopted template does not share the neighbor's compiled ILP template")
	}
}

// TestWarmHintRejected: hints for a different chain, a different
// abstraction, or from a degraded neighbor must be ignored — the
// analysis falls back to a cold construction with identical results.
func TestWarmHintRejected(t *testing.T) {
	sys := casestudy.New()
	ctx := context.Background()

	other, err := NewCtx(ctx, sys, sys.ChainByName("sigma_d"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewCtx(ctx, sys, sys.ChainByName("sigma_c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong chain: seeds would be unsound, must be dropped.
	warm, err := NewWarmCtx(ctx, sys, sys.ChainByName("sigma_c"), Options{}, &WarmStart{From: other})
	if err != nil {
		t.Fatal(err)
	}
	if warm.warmFrom != nil {
		t.Error("warm analysis adopted a different chain's template")
	}
	if warm.MinSlack != cold.MinSlack || warm.Latency.WCL != cold.Latency.WCL {
		t.Errorf("rejected hint changed results: warm (slack=%d wcl=%d), cold (slack=%d wcl=%d)",
			warm.MinSlack, warm.Latency.WCL, cold.MinSlack, cold.Latency.WCL)
	}

	// Different abstraction (Flat) on the neighbor: reject.
	flatNeighbor, err := NewCtx(ctx, sys, sys.ChainByName("sigma_c"), Options{Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err = NewWarmCtx(ctx, sys, sys.ChainByName("sigma_c"), Options{}, &WarmStart{From: flatNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Latency.WCL != cold.Latency.WCL || warm.MinSlack != cold.MinSlack {
		t.Error("flat-neighbor hint changed the structured analysis")
	}

	// Nil hints are the cold path.
	warm, err = NewWarmCtx(ctx, sys, sys.ChainByName("sigma_c"), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MinSlack != cold.MinSlack {
		t.Error("nil warm start diverged from cold analysis")
	}
}

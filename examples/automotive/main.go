// A synthetic engine-control scenario in the style the paper's
// introduction motivates: communicating threads forming task chains on
// one ECU core, with a diagnostics chain that only runs on fault events
// (the overload chain). The engine-control chain tolerates occasional
// overruns — a weakly-hard requirement — as long as no more than 1 out
// of any 20 control periods is late.
//
// Run with: go run ./examples/automotive
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/weaklyhard"
)

func main() {
	b := repro.NewBuilder("engine-ecu")

	// 5 ms control loop: sample sensors → compute fuel/ignition →
	// write actuators. Budget equals the period.
	b.Chain("control").Periodic(5000).Deadline(5000).
		Task("sample", 10, 600).
		Task("compute", 9, 1400).
		Task("actuate", 3, 700)

	// 20 ms CAN gateway chain: receive frame → unpack → publish.
	b.Chain("can").Periodic(20000).Deadline(20000).
		Task("rx", 8, 900).
		Task("unpack", 7, 1100).
		Task("publish", 1, 1500)

	// Diagnostics chain: triggered by fault interrupts, at most once
	// every 50 ms, but expensive when it runs — the overload source.
	b.Chain("diag").Sporadic(50000).Overload().
		Task("capture", 11, 800).
		Task("analyze", 2, 2600)

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Analysis ==")
	for _, name := range []string{"control", "can"} {
		an, err := repro.AnalysisRequest{System: sys, Chain: name}.DMM(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: WCL = %d / D = %d, typical schedulable = %v\n",
			name, an.Latency.WCL, sys.ChainByName(name).Deadline, an.TypicalSchedulable)
		for _, k := range []int64{1, 20, 200} {
			r, err := an.DMM(k)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  dmm(%d) = %d\n", k, r.Value)
		}
	}

	// The weakly-hard requirement: at most 1 late control period in any
	// 20 — and the largest window m=1 still covers.
	an, err := repro.AnalysisRequest{System: sys, Chain: "control"}.DMM(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	req := weaklyhard.Constraint{M: 1, K: 20}
	ok, err := weaklyhard.Verify(an, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweakly-hard requirement %v on control: guaranteed = %v\n", req, ok)
	if kmax, err := weaklyhard.LargestK(an, 1, 10_000); err == nil {
		fmt.Printf("largest k with (1,k) guaranteed: %d\n", kmax)
	}

	// Simulate a stressy run: dense overload, worst-case execution.
	fmt.Println("\n== Simulation (dense diagnostics storms) ==")
	res, err := repro.Simulate(sys, repro.SimConfig{Horizon: 10_000_000})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"control", "can", "diag"} {
		st := res.Chains[name]
		fmt.Printf("%s: %d runs, max latency %d, misses %d, worst 20-window %d\n",
			name, st.Completions, st.MaxLatency, st.Misses, st.WorstWindowMisses(20))
	}
	switch {
	case weaklyhard.Observed(res.Chains["control"], req) && ok:
		fmt.Println("simulation respects the (1,20) requirement, as guaranteed")
	case weaklyhard.Observed(res.Chains["control"], req):
		fmt.Println("simulation respects the (1,20) requirement even though the " +
			"analysis could not guarantee it — the bound is conservative")
	case ok:
		fmt.Println("BUG: simulation violated a verified constraint")
	default:
		fmt.Println("requirement violated in simulation (and not guaranteed)")
	}
}

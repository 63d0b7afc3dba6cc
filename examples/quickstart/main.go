// Quickstart: describe a two-chain system, compute its worst-case
// latency and deadline miss model, and cross-check with the simulator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A periodic video pipeline that must finish within its period, and
	// a sporadic interrupt-service chain that occasionally steals the
	// CPU (an overload chain in TWCA terms).
	b := repro.NewBuilder("quickstart")
	b.Chain("video").Periodic(200).Deadline(200).
		Task("decode", 8, 40).
		Task("scale", 7, 30).
		Task("emit", 1, 50)
	b.Chain("isr").Sporadic(900).Overload().
		Task("top-half", 9, 25).
		Task("bottom-half", 2, 35)
	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// One request names the system and chain for every analysis kind.
	ctx := context.Background()
	req := repro.AnalysisRequest{System: sys, Chain: "video"}

	// Worst-case end-to-end latency (Theorems 1-2 of the paper).
	lat, err := req.Latency(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video: WCL = %d, deadline = %d, schedulable = %v\n",
		lat.WCL, sys.ChainByName("video").Deadline, lat.Schedulable)

	// Deadline miss model (Theorem 3): how many of k consecutive frames
	// can be late?
	an, err := req.DMM(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range []int64{1, 10, 100} {
		r, err := an.DMM(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("video: dmm(%d) = %d  (at most %d of any %d frames late)\n",
			k, r.Value, r.Value, k)
	}

	// Empirical cross-check: simulate the worst-case arrival pattern.
	res, err := repro.Simulate(sys, repro.SimConfig{Horizon: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Chains["video"]
	fmt.Printf("simulated %d frames: max latency %d (bound %d), worst 10-window misses %d\n",
		st.Completions, st.MaxLatency, lat.WCL, st.WorstWindowMisses(10))
}

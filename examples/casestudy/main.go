// The paper's Thales case study (Fig. 4) end to end: latency analysis
// (Table I), combination analysis and deadline miss models (Table II),
// weakly-hard constraint verification, and a simulation cross-check
// with a Gantt chart of the critical instant.
//
// Run with: go run ./examples/casestudy
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/weaklyhard"
)

func main() {
	sys := repro.CaseStudy()

	fmt.Println("== Table I: worst-case latencies ==")
	for _, name := range []string{"sigma_c", "sigma_d"} {
		lat, err := repro.AnalysisRequest{System: sys, Chain: name}.Latency(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: WCL = %d (D = %d, K = %d, N = %d)\n",
			name, lat.WCL, sys.ChainByName(name).Deadline, lat.K, lat.MissesPerWindow)
	}

	fmt.Println("\n== Table II: deadline miss model of σc ==")
	an, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.DMM(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("typical system schedulable: %v (min slack %d)\n",
		an.TypicalSchedulable, an.MinSlack)
	for _, c := range an.Combinations {
		status := "schedulable"
		if c.Cost > an.MinSlack {
			status = "unschedulable"
		}
		fmt.Printf("combination %-40s cost %-3d %s\n", c, c.Cost, status)
	}
	for _, k := range []int64{3, 10, 76, 250} {
		r, err := an.DMM(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dmm_c(%d) = %d  (Ω: σa=%d σb=%d)\n",
			k, r.Value, an.Omega(sys.ChainByName("sigma_a"), k), an.Omega(sys.ChainByName("sigma_b"), k))
	}

	fmt.Println("\n== Weakly-hard guarantees for σc ==")
	for _, c := range []weaklyhard.Constraint{{M: 5, K: 10}, {M: 4, K: 10}, {M: 3, K: 6}} {
		ok, err := weaklyhard.Verify(an, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("constraint %v: guaranteed = %v\n", c, ok)
	}

	fmt.Println("\n== Simulation cross-check (dense adversarial arrivals) ==")
	res, err := repro.Simulate(sys, repro.SimConfig{Horizon: 500_000, RecordTrace: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"sigma_c", "sigma_d"} {
		st := res.Chains[name]
		fmt.Printf("%s: %d instances, max latency %d, misses %d, worst 10-window %d\n",
			name, st.Completions, st.MaxLatency, st.Misses, st.WorstWindowMisses(10))
	}

	fmt.Println("\n== Gantt chart of the first 400 time units ==")
	if err := res.Trace.WriteGantt(os.Stdout, 400, 4); err != nil {
		log.Fatal(err)
	}
}

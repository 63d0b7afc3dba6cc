package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// Example reproduces the headline numbers of the paper's case study:
// the worst-case latencies of Table I and the dmm_c(3) entry of
// Table II.
func Example() {
	sys := repro.CaseStudy()
	for _, name := range []string{"sigma_c", "sigma_d"} {
		lat, err := repro.AnalysisRequest{System: sys, Chain: name}.Latency(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: WCL=%d schedulable=%v\n", name, lat.WCL, lat.Schedulable)
	}
	an, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.DMM(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	r, err := an.DMM(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dmm_c(3)=%d\n", r.Value)
	// Output:
	// sigma_c: WCL=331 schedulable=false
	// sigma_d: WCL=175 schedulable=true
	// dmm_c(3)=3
}

// ExampleAnalysisRequest_DMM shows the weakly-hard query pattern:
// verify an (m, k) requirement against the analysis.
func ExampleAnalysisRequest_DMM() {
	sys := repro.CaseStudy()
	an, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.DMM(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, mk := range [][2]int64{{5, 10}, {4, 10}} {
		ok, err := an.WeaklyHard(mk[0], mk[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%d,%d)-weakly-hard: %v\n", mk[0], mk[1], ok)
	}
	// Output:
	// (5,10)-weakly-hard: true
	// (4,10)-weakly-hard: false
}

// ExampleSimulate cross-checks an analysis bound empirically.
func ExampleSimulate() {
	sys := repro.CaseStudy()
	res, err := repro.Simulate(sys, repro.SimConfig{Horizon: 100_000})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Chains["sigma_c"]
	fmt.Printf("max latency %d (bound 331), instances %d\n", st.MaxLatency, st.Completions)
	// Output:
	// max latency 331 (bound 331), instances 500
}

// ExampleNewBuilder builds a fresh system from scratch.
func ExampleNewBuilder() {
	b := repro.NewBuilder("demo")
	b.Chain("app").Periodic(100).Deadline(100).
		Task("in", 3, 10).
		Task("out", 1, 20)
	b.Chain("irq").Sporadic(400).Overload().
		Task("isr", 2, 15)
	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	lat, err := repro.AnalysisRequest{System: sys, Chain: "app"}.Latency(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lat.WCL)
	// Output:
	// 45
}

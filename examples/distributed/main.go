// A distributed pipeline in the direction the paper's conclusion names
// ("an important step towards using TWCA for the practical design of
// distributed embedded systems"): a camera-processing chain whose
// stages are mapped onto two processors, analyzed with the holistic
// per-task decomposition extended across resources and validated by
// the multi-resource simulator.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/holistic"
	"repro/internal/latency"
	"repro/internal/sim"
)

func main() {
	b := repro.NewBuilder("camera-pipeline")
	// Frame pipeline: capture and filter on the sensor SoC, detect and
	// publish on the main CPU. Asynchronous: frames pipeline through.
	b.Chain("frame").Asynchronous().Periodic(1000).Deadline(3000).
		Task("capture", 10, 200).
		Task("filter", 4, 300).
		Task("detect", 9, 300).
		Task("publish", 3, 100)
	// Housekeeping load on each processor.
	b.Chain("soc-mgmt").Asynchronous().Periodic(2000).Deadline(2000).
		Task("mgmt", 8, 300)
	b.Chain("cpu-log").Asynchronous().Periodic(2000).Deadline(2000).
		Task("logger", 2, 250)
	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	mapping := map[string]string{
		"capture": "soc", "filter": "soc", "mgmt": "soc",
		"detect": "cpu", "publish": "cpu", "logger": "cpu",
	}

	fmt.Println("== Mapped holistic analysis ==")
	for _, name := range []string{"frame", "soc-mgmt", "cpu-log"} {
		res, err := holistic.AnalyzeMapped(sys, sys.ChainByName(name),
			holistic.Mapping(mapping), latency.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s WCL = %-5d (per-stage responses %v)\n", name, res.WCL, res.Response)
	}

	fmt.Println("\n== What if everything ran on one processor? ==")
	if res, err := holistic.Analyze(sys, sys.ChainByName("frame"), latency.Options{}); err != nil {
		fmt.Printf("frame: single-processor analysis fails (%v)\n", err)
		fmt.Println("       the combined load overruns one processor — the mapping is load-bearing")
	} else {
		fmt.Printf("frame: WCL = %d on a single processor\n", res.WCL)
	}

	fmt.Println("\n== Multi-resource simulation (dense arrivals, WCET) ==")
	simRes, err := sim.Run(sys, sim.Config{Horizon: 1_000_000, Mapping: mapping})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"frame", "soc-mgmt", "cpu-log"} {
		st := simRes.Chains[name]
		fmt.Printf("%-9s %d frames, max latency %d, misses %d\n",
			name, st.Completions, st.MaxLatency, st.Misses)
	}
}

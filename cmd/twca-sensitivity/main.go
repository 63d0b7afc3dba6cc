// Command twca-sensitivity answers the inverse questions about a
// weakly-hard constraint (m, k) on one chain: how much may WCETs grow
// (uniformly and per task), how much extra activation jitter and how
// much inter-arrival compression do the overload chains tolerate, and
// what is the whole (m, k) feasibility frontier.
//
// Usage:
//
//	twca-sensitivity -chain sigma_c [-m 5] [-k 10] [-frontier 20] [system.{json,sys}]
//	twca-gen | twca-sensitivity -chain c0 -
//
// With no file argument the paper's Thales case study is analyzed; "-"
// reads a system (JSON or DSL, auto-detected) from stdin. When -m is
// omitted the constraint defends the nominal bound itself: m = dmm(k).
//
// -json emits the versioned schema.Sensitivity document (the same wire
// format twca-serve speaks); -bench-out FILE additionally times a cold
// run and a repeat against a hot sensitivity.WarmStore, whose probes are
// all exact-coordinate hits, and writes the numbers as JSON (the make
// bench artifact). -bench-check FILE reruns those timings and exits
// nonzero when the hot-store speedup fell below half the committed one
// — the CI bench smoke gate. -no-warm-start bypasses the warm store, so
// every probe is solved; the results are byte-identical either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/dsl"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/sensitivity"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "twca-sensitivity: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool; factored out of main for testability.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("twca-sensitivity", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chain := fs.String("chain", "", "target chain (required)")
	m := fs.Int64("m", -1, "allowed misses per window; -1 defends the nominal dmm(k)")
	k := fs.Int64("k", 10, "window length of the (m, k) constraint")
	frontier := fs.Int64("frontier", 20, "sweep the (m, k) frontier for k up to this; 0 skips it")
	scaleDenom := fs.Int64("scale-denom", 1000, "WCET slack resolution: scales are multiples of 1/denom")
	maxScale := fs.Int64("max-scale", 0, "slack search cap in denom units (0 = 64x nominal)")
	maxJitter := fs.Int64("max-jitter", 0, "jitter search cap in time units (0 = 64x nominal distance)")
	tasks := fs.String("tasks", "", "comma-separated tasks for per-task slack (default: all)")
	exact := fs.Bool("exact", false, "use the exact Eq. (3) combination criterion")
	policyFlag := fs.String("policy", "",
		"scheduling policy: spp (default), np-spp or edf (jcl is simulation-only)")
	jsonOut := fs.Bool("json", false, "emit the versioned JSON document (the twca-serve wire schema)")
	par := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"probe worker pool size (results are identical for any value)")
	benchOut := fs.String("bench-out", "", "also time a cold run and a hot-store repeat and write the JSON to this file")
	benchCheck := fs.String("bench-check", "", "rerun the benchmark and fail if the hot-store speedup fell below half the one committed in this JSON file")
	noWarm := fs.Bool("no-warm-start", false, "bypass the warm store: solve every probe (results are byte-identical either way)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chain == "" {
		return fmt.Errorf("-chain is required")
	}

	sys, err := load(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	aopts := twca.Options{ExactCriterion: *exact, Policy: *policyFlag}
	if err := aopts.Validate(); err != nil {
		return err
	}
	ctx := context.Background()

	// -m -1 defends the nominal bound itself: the slack numbers then
	// answer "how much margin protects today's guarantee".
	if *m < 0 {
		c := sys.ChainByName(*chain)
		if c == nil {
			return fmt.Errorf("no chain named %q", *chain)
		}
		an, err := twca.NewCtx(ctx, sys, c, aopts)
		if err != nil {
			return err
		}
		r, err := an.DMMCtx(ctx, *k)
		if err != nil {
			return err
		}
		if r.Value >= *k {
			return fmt.Errorf("dmm(%d) = %d: every window may miss entirely, no (m, %d) constraint holds", *k, r.Value, *k)
		}
		*m = r.Value
		fmt.Fprintf(stderr, "defending the nominal bound: m = dmm(%d) = %d\n", *k, *m)
	}

	sopts := sensitivity.Options{
		Constraint:   weaklyhard.Constraint{M: *m, K: *k},
		ScaleDenom:   *scaleDenom,
		MaxScale:     *maxScale,
		MaxJitter:    curves.Time(*maxJitter),
		FrontierMaxK: *frontier,
		Workers:      *par,
	}
	if *tasks != "" {
		sopts.Tasks = strings.Split(*tasks, ",")
		for i := range sopts.Tasks {
			sopts.Tasks[i] = strings.TrimSpace(sopts.Tasks[i])
		}
	}

	sopts.NoWarmStart = *noWarm

	eng := sensitivity.Engine{Warm: sensitivity.NewWarmStore()}
	res, err := eng.Query(ctx, sys, *chain, aopts, sopts)
	if err != nil {
		return err
	}

	if *benchOut != "" || *benchCheck != "" {
		doc, err := runBench(ctx, sys, *chain, aopts, sopts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "bench: cold %.1fms, warm start %.1fms (%.1fx)\n",
			doc.ColdMS, doc.WarmStartMS, doc.WarmStartSpeedup)
		if *benchOut != "" {
			data, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "bench: wrote %s\n", *benchOut)
		}
		if *benchCheck != "" {
			if err := checkBench(*benchCheck, doc, stderr); err != nil {
				return err
			}
		}
	}

	if *jsonOut {
		data, err := json.MarshalIndent(schema.FromSensitivity(res), "", "  ")
		if err != nil {
			return err
		}
		_, err = stdout.Write(append(data, '\n'))
		return err
	}
	report(stdout, sys, res)
	return nil
}

// report renders the human-readable summary.
func report(w io.Writer, sys *model.System, res *sensitivity.Result) {
	c := res.Constraint
	fmt.Fprintf(w, "sensitivity of %s chain %s under (m=%d, k=%d)\n", sys.Name, res.Chain, c.M, c.K)
	fmt.Fprintf(w, "  nominal dmm(%d) = %d\n\n", c.K, res.NominalDMM)

	fmt.Fprintf(w, "WCET slack (units of 1/%d of nominal):\n", res.ScaleDenom)
	fmt.Fprintf(w, "  %-10s %s\n", "uniform", scaleStr(res.Uniform, res.ScaleDenom))
	for _, ts := range res.Tasks {
		fmt.Fprintf(w, "  %-10s %s\n", ts.Task, scaleStr(ts.Slack, res.ScaleDenom))
	}

	if len(res.Breakdown) > 0 {
		fmt.Fprintf(w, "\noverload tolerance:\n")
		for _, b := range res.Breakdown {
			fmt.Fprintf(w, "  %-10s extra jitter <= %d%s", b.Chain, int64(b.MaxExtraJitter), atLimit(b.JitterAtLimit))
			if b.NominalDistance > 0 {
				fmt.Fprintf(w, ", min distance %d (nominal %d)%s",
					int64(b.MinDistance), int64(b.NominalDistance), atLimit(b.DistanceAtLimit))
			}
			fmt.Fprintln(w)
		}
	}

	if len(res.Frontier) > 0 {
		fmt.Fprintf(w, "\n(m, k) feasibility frontier (min m guaranteeing (m, k)):\n")
		fmt.Fprintf(w, "  k    :")
		for _, p := range res.Frontier {
			fmt.Fprintf(w, " %3d", p.K)
		}
		fmt.Fprintf(w, "\n  min m:")
		for _, p := range res.Frontier {
			fmt.Fprintf(w, " %3d", p.MinM)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\n%d probes, %d analyses\n", res.Probes, res.Analyses)
}

func scaleStr(s sensitivity.Slack, denom int64) string {
	return fmt.Sprintf("%d (%.3fx)%s", s.Scale, float64(s.Scale)/float64(denom), atLimit(s.AtLimit))
}

func atLimit(b bool) string {
	if b {
		return " [search cap]"
	}
	return ""
}

// benchDoc is the BENCH_sensitivity.json artifact written by -bench-out:
// cold solves everything from scratch (warm store bypassed), and
// warm_start_ms repeats the query against a hot sensitivity.WarmStore
// (exact-coordinate reuse — the incremental engine's fast path). Both
// produce byte-identical documents.
type benchDoc struct {
	System           string  `json:"system"`
	Chain            string  `json:"chain"`
	M                int64   `json:"m"`
	K                int64   `json:"k"`
	Probes           int64   `json:"probes"`
	Analyses         int64   `json:"analyses"`
	ColdMS           float64 `json:"cold_ms"`
	WarmStartMS      float64 `json:"warm_start_ms"`
	WarmStartSpeedup float64 `json:"warm_start_speedup"`
}

// runBench times the two engine configurations on the same query,
// best of benchRounds each (the warm runs finish in well under a
// millisecond, where a single sample is mostly scheduler noise).
const benchRounds = 5

func runBench(ctx context.Context, sys *model.System, chain string, aopts twca.Options, sopts sensitivity.Options) (*benchDoc, error) {
	best := func(run func() error) (time.Duration, error) {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < benchRounds; i++ {
			t0 := time.Now()
			if err := run(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); d < bestD {
				bestD = d
			}
		}
		return bestD, nil
	}

	coldOpts := sopts
	coldOpts.NoWarmStart = true
	var res *sensitivity.Result
	cold, err := best(func() error {
		var err error
		res, err = (sensitivity.Engine{}).Query(ctx, sys, chain, aopts, coldOpts)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Hot warm store: exact-coordinate reuse.
	warmOpts := sopts
	warmOpts.NoWarmStart = false
	eng := sensitivity.Engine{Warm: sensitivity.NewWarmStore()}
	if _, err := eng.Query(ctx, sys, chain, aopts, warmOpts); err != nil {
		return nil, err
	}
	warmStart, err := best(func() error {
		_, err := eng.Query(ctx, sys, chain, aopts, warmOpts)
		return err
	})
	if err != nil {
		return nil, err
	}

	return &benchDoc{
		System: sys.Name, Chain: chain,
		M: res.Constraint.M, K: res.Constraint.K,
		Probes: res.Probes, Analyses: res.Analyses,
		ColdMS:           ms(cold),
		WarmStartMS:      ms(warmStart),
		WarmStartSpeedup: float64(cold) / float64(warmStart),
	}, nil
}

// checkBench compares a fresh run against the committed artifact. It
// compares speedups rather than wall-clock times, so the gate is
// machine-independent: a regression means the hot-store path lost its
// edge over the cold path on the SAME host, not that the host is slow.
func checkBench(path string, got *benchDoc, stderr io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want benchDoc
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if want.WarmStartSpeedup <= 0 {
		return fmt.Errorf("%s has no warm_start_speedup; regenerate with make bench", path)
	}
	fmt.Fprintf(stderr, "bench-check: warm-start speedup %.1fx, committed %.1fx (floor %.1fx)\n",
		got.WarmStartSpeedup, want.WarmStartSpeedup, want.WarmStartSpeedup/2)
	if got.WarmStartSpeedup < want.WarmStartSpeedup/2 {
		return fmt.Errorf("warm-start speedup regressed: %.1fx measured, committed %.1fx (allowed floor: half)",
			got.WarmStartSpeedup, want.WarmStartSpeedup)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// load reads the system: no path selects the built-in Thales case
// study, "-" reads from stdin, anything else is a file path. Format
// (native JSON or the DSL) is auto-detected by dsl.Load.
func load(path string, stdin io.Reader) (*model.System, error) {
	switch path {
	case "":
		return casestudy.New(), nil
	case "-":
		return dsl.Load(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dsl.Load(f)
}

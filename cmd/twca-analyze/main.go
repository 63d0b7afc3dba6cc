// Command twca-analyze runs the full analysis pipeline on a system
// description (JSON or DSL, auto-detected): worst-case latency
// (Theorems 1–2) and deadline miss models (Theorem 3) for every chain
// with a deadline.
//
// Usage:
//
//	twca-analyze [-k 1,3,10,100] [-policy spp] [-baseline] [-exact] [-degrade] [-json] [-lint=false] system.{json,sys}
//	twca-gen | twca-analyze
//
// -policy selects the scheduling policy: spp (the default), np-spp or
// edf. The simulation-only jcl policy is rejected here.
//
// -json replaces the table with the versioned JSON report defined by
// internal/schema — the same wire format twca-serve speaks.
//
// With no file argument the system is read from stdin.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/degrade"
	"repro/internal/dsl"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/twca"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "twca-analyze: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool; factored out of main for testability.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("twca-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ks := fs.String("k", "1,3,10,100", "comma-separated k values for dmm(k)")
	baseline := fs.Bool("baseline", false, "also run the structure-blind baseline")
	exact := fs.Bool("exact", false, "use the exact Eq. (3) combination criterion")
	degradeFlag := fs.Bool("degrade", false,
		"degrade gracefully on budget exhaustion: answer with a sound over-approximation (tagged in -json output) instead of failing")
	lint := fs.Bool("lint", true, "print model warnings")
	explain := fs.String("explain", "", "print the full analysis narrative for the named chain")
	format := fs.String("format", "ascii", "table output: ascii, markdown or csv")
	jsonOut := fs.Bool("json", false,
		"emit the versioned JSON report (the twca-serve wire schema) instead of a table")
	par := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"analysis worker pool size (results are identical for any value)")
	policyFlag := fs.String("policy", "",
		"scheduling policy: spp (default), np-spp or edf (jcl is simulation-only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := load(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	if *lint {
		for _, w := range model.Lint(sys) {
			fmt.Fprintln(stderr, "warning:", w)
		}
	}
	kvals, err := parseKs(*ks)
	if err != nil {
		return err
	}
	opts := twca.Options{ExactCriterion: *exact, Policy: *policyFlag, Degrade: degrade.Policy{Allow: *degradeFlag}}
	if err := opts.Validate(); err != nil {
		return err
	}
	// A simulation-only policy fails every chain identically; refuse it
	// up front (exit 1) instead of printing a table of error rows.
	if _, err := policy.AnalyzerFor(opts.PolicyName()); err != nil {
		return err
	}

	if *explain != "" {
		c := sys.ChainByName(*explain)
		if c == nil {
			return fmt.Errorf("no chain named %q", *explain)
		}
		an, err := twca.New(sys, c, opts)
		if err != nil {
			return err
		}
		k := kvals[len(kvals)-1]
		if err := an.Explain(stdout, k); err != nil {
			return err
		}
		blame, err := an.Blame(k)
		if err != nil {
			return err
		}
		for _, o := range sys.OverloadChains() {
			fmt.Fprintf(stdout, "  without %s: dmm(%d) = %d\n", o.Name, k, blame[o.Name])
		}
		return nil
	}

	if *jsonOut {
		rep, err := schema.FromSystem(context.Background(), sys, opts, kvals, 0)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		_, err = stdout.Write(data)
		return err
	}

	tbl := &report.Table{
		Title:   fmt.Sprintf("TWCA analysis of %s", sys.Name),
		Headers: append([]string{"chain", "kind", "D", "WCL", "sched"}, dmmHeaders(kvals)...),
	}
	// Construct every chain's analysis on the worker pool, then query
	// the DMM points serially (cheap once the analysis exists) and emit
	// rows in system order so the table is identical for any pool size.
	analyses, errs := twca.AnalyzeAll(sys, opts, *par)
	var flat map[string]*twca.Analysis
	if *baseline {
		flatOpts := opts
		flatOpts.Flat = true
		flat, _ = twca.AnalyzeAll(sys, flatOpts, *par)
	}
	for _, c := range sys.RegularChains() {
		if c.Deadline == 0 {
			continue
		}
		if err := errs[c.Name]; err != nil {
			tbl.AddRow(c.Name, c.Kind, int64(c.Deadline), "error: "+err.Error())
			continue
		}
		row, err := dmmRow(analyses[c.Name], c, kvals)
		if err != nil {
			tbl.AddRow(c.Name, c.Kind, int64(c.Deadline), "error: "+err.Error())
			continue
		}
		tbl.AddRow(row...)
		if fan := flat[c.Name]; fan != nil {
			if brow, err := dmmRow(fan, c, kvals); err == nil {
				brow[0] = c.Name + " (flat)"
				tbl.AddRow(brow...)
			}
		}
	}
	switch *format {
	case "ascii":
		return tbl.WriteASCII(stdout)
	case "markdown":
		return tbl.WriteMarkdown(stdout)
	case "csv":
		return tbl.WriteCSV(stdout)
	default:
		return fmt.Errorf("unknown output format %q", *format)
	}
}

func load(path string, stdin io.Reader) (*model.System, error) {
	r := stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return dsl.Load(r)
}

func parseKs(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad k value %q", part)
		}
		out = append(out, k)
	}
	return out, nil
}

func dmmHeaders(ks []int64) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("dmm(%d)", k)
	}
	return out
}

func dmmRow(an *twca.Analysis, c *model.Chain, ks []int64) ([]any, error) {
	row := []any{c.Name, c.Kind, int64(c.Deadline), int64(an.Latency.WCL), an.Latency.Schedulable}
	for _, k := range ks {
		r, err := an.DMM(k)
		if err != nil {
			return nil, err
		}
		row = append(row, r.Value)
	}
	return row, nil
}

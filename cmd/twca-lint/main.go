// Command twca-lint runs the repository's custom static-analysis
// suite (internal/analyzers) over the given packages and reports
// violations of the analysis pipeline's correctness contract:
//
//	determinism  map iteration / wall clock / global rand reaching
//	             deterministic analysis output
//	saturation   raw + or * on math.MaxInt64-sentinel values
//	soundflow    upper-bound-tainted values flowing through tightening
//	             operations (min, minuend subtraction, clamp-down)
//	suppression  //twcalint:ignore directives without a reason, or
//	             naming a rule the suite does not have
//
// Usage:
//
//	twca-lint [-format=text|json|sarif] [-fix] [packages...]
//
// Packages default to ./... . The exit status is 1 when any
// unsuppressed finding exists, 2 on operational errors, and 3 when one
// or more packages failed to load (those packages were not checked, so
// a clean exit would be a lie). Findings are suppressed inline with
// `//twcalint:ignore <rule> <reason>` on the offending line or the
// line above; the reason is mandatory.
//
// -format=json emits the internal/analyzers Report schema
// (schema_version 1, golden-pinned); -json is kept as an alias.
// -format=sarif emits SARIF 2.1.0 for GitHub code scanning.
// -fix applies the machine-applicable suggested fixes (saturating
// helper rewrites, collect-then-sort) in place and then
// reports what remains; on a clean tree it is a no-op.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyzers"
)

// Exit codes. Distinct codes let CI distinguish "the tree has
// findings" from "the tool could not do its job".
const (
	exitClean       = 0
	exitFindings    = 1
	exitOperational = 2
	exitLoadFailure = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twca-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json (Report schema_version 1), or sarif (SARIF 2.1.0)")
	jsonAlias := fs.Bool("json", false, "alias for -format=json")
	fix := fs.Bool("fix", false, "apply machine-applicable suggested fixes in place before reporting")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: twca-lint [-format=text|json|sarif] [-fix] [packages...]\n\n")
		fmt.Fprintf(stderr, "Rules (suppress with //twcalint:ignore <rule> <reason>):\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitOperational
	}
	if *jsonAlias {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "twca-lint: unknown -format %q (want text, json or sarif)\n", *format)
		return exitOperational
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	passes, loadErrs, err := analyzers.LoadPackages(analyzers.DefaultConfig(), patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "twca-lint:", err)
		return exitOperational
	}
	findings := analyzers.AnalyzeAll(passes, analyzers.All())

	if *fix {
		changed, dropped, err := analyzers.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintln(stderr, "twca-lint:", err)
			return exitOperational
		}
		for _, name := range changed {
			fmt.Fprintf(stderr, "twca-lint: fixed %s\n", name)
		}
		if dropped > 0 {
			fmt.Fprintf(stderr, "twca-lint: %d overlapping fix(es) skipped; re-run -fix after review\n", dropped)
		}
		// Re-analyze so the report reflects the rewritten tree.
		if len(changed) > 0 {
			passes, loadErrs, err = analyzers.LoadPackages(analyzers.DefaultConfig(), patterns...)
			if err != nil {
				fmt.Fprintln(stderr, "twca-lint:", err)
				return exitOperational
			}
			findings = analyzers.AnalyzeAll(passes, analyzers.All())
		}
	}

	failing := 0
	for _, f := range findings {
		if !f.Suppressed {
			failing++
		}
	}

	wd, _ := os.Getwd()
	switch *format {
	case "json":
		b, err := analyzers.NewReport(wd, findings).Marshal()
		if err != nil {
			fmt.Fprintln(stderr, "twca-lint:", err)
			return exitOperational
		}
		stdout.Write(b)
	case "sarif":
		b, err := analyzers.NewSARIF(wd, analyzers.All(), findings).Marshal()
		if err != nil {
			fmt.Fprintln(stderr, "twca-lint:", err)
			return exitOperational
		}
		stdout.Write(b)
	default:
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			fmt.Fprintf(stdout, "%s: %s: %s\n", f.Pos, f.Rule, f.Message)
		}
		if failing > 0 {
			fmt.Fprintf(stderr, "twca-lint: %d finding(s) in %d package(s)\n", failing, len(passes))
		}
	}

	for _, le := range loadErrs {
		fmt.Fprintf(stderr, "twca-lint: load failure (package not checked): %v\n", le)
	}
	if len(loadErrs) > 0 {
		return exitLoadFailure
	}
	if failing > 0 {
		return exitFindings
	}
	return exitClean
}

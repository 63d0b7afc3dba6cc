package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// TestCleanPackagesStayClean drives the exact pipeline main uses over
// real packages that must be finding-free: the saturating-helper home
// (internal/curves, deliberately outside the saturation scope) and
// three deterministic-scope packages (internal/report, internal/store,
// internal/sim). A finding here means either the tree regressed or a
// rule grew a false positive.
func TestCleanPackagesStayClean(t *testing.T) {
	passes, loadErrs, err := analyzers.LoadPackages(analyzers.DefaultConfig(),
		"repro/internal/curves", "repro/internal/report",
		"repro/internal/store", "repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range loadErrs {
		t.Fatalf("load failure: %v", le)
	}
	if len(passes) != 4 {
		t.Fatalf("loaded %d packages, want 4", len(passes))
	}
	for _, f := range analyzers.AnalyzeAll(passes, analyzers.All()) {
		if !f.Suppressed {
			t.Errorf("%s: %s: %s", f.Pos, f.Rule, f.Message)
		}
	}
}

// TestDefaultConfigScopesTheContract pins the package lists to the
// repo's real layout so a rename breaks loudly here instead of
// silently descoping a rule.
func TestDefaultConfigScopesTheContract(t *testing.T) {
	cfg := analyzers.DefaultConfig()
	for _, pkg := range []string{"twca", "latency", "segments", "schema", "report", "sensitivity", "ilp", "policy", "sim"} {
		found := false
		for _, s := range cfg.DeterministicPkgs {
			if s == "internal/"+pkg {
				found = true
			}
		}
		if !found {
			t.Errorf("internal/%s missing from DeterministicPkgs", pkg)
		}
	}
	if len(cfg.SaturatingTypes) == 0 || cfg.SaturatingTypes[0] != "repro/internal/curves.Time" {
		t.Errorf("SaturatingTypes = %v, want repro/internal/curves.Time first", cfg.SaturatingTypes)
	}
	for _, s := range cfg.SaturationPkgs {
		if strings.Contains(s, "internal/curves") {
			t.Errorf("internal/curves must stay outside SaturationPkgs; it owns the guarded helpers")
		}
	}
	for _, want := range []struct {
		name string
		list []string
	}{
		{"SoundflowPkgs", cfg.SoundflowPkgs},
		{"UpperSources", cfg.UpperSources},
		{"SoundflowAllow", cfg.SoundflowAllow},
	} {
		if len(want.list) == 0 {
			t.Errorf("%s empty; the rule family is silently descoped", want.name)
		}
	}
}

// runLint invokes the CLI entry point capturing both streams.
func runLint(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunExitCodes pins the CLI status contract: 0 clean, 1 findings,
// 2 operational misuse, 3 load failure. CI keys off these.
func TestRunExitCodes(t *testing.T) {
	if code, _, stderr := runLint("repro/internal/curves"); code != exitClean {
		t.Errorf("clean package: exit %d, want %d\n%s", code, exitClean, stderr)
	}
	code, stdout, _ := runLint("./testdata/internal/twca")
	if code != exitFindings {
		t.Errorf("seeded violation: exit %d, want %d", code, exitFindings)
	}
	if !strings.Contains(stdout, "determinism") {
		t.Errorf("finding not reported on stdout:\n%s", stdout)
	}
	if code, _, _ := runLint("-nonsense"); code != exitOperational {
		t.Errorf("bad flag: exit %d, want %d", code, exitOperational)
	}
	if code, _, _ := runLint("-format=yaml"); code != exitOperational {
		t.Errorf("bad format: exit %d, want %d", code, exitOperational)
	}
	code, _, stderr := runLint("./testdata/broken")
	if code != exitLoadFailure {
		t.Errorf("broken package: exit %d, want %d", code, exitLoadFailure)
	}
	if !strings.Contains(stderr, "load failure (package not checked)") {
		t.Errorf("load failure not named on stderr:\n%s", stderr)
	}
}

// TestRunJSONDeterministic is the CLI half of the determinism
// contract: two -json runs over the same packages emit byte-identical
// reports (rule order, finding order, path rendering).
func TestRunJSONDeterministic(t *testing.T) {
	run := func() string {
		code, stdout, stderr := runLint("-json", "./testdata/internal/twca", "repro/internal/curves")
		if code != exitFindings {
			t.Fatalf("exit %d, want %d\n%s", code, exitFindings, stderr)
		}
		return stdout
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two -json runs disagree:\n%s\nvs\n%s", a, b)
	}
}

// TestRunSARIF checks the CLI wiring end to end: repo-relative URI,
// the %SRCROOT% base GitHub resolves, and the rule id.
func TestRunSARIF(t *testing.T) {
	code, stdout, stderr := runLint("-format=sarif", "./testdata/internal/twca")
	if code != exitFindings {
		t.Fatalf("exit %d, want %d\n%s", code, exitFindings, stderr)
	}
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"ruleId": "determinism"`,
		`"uri": "testdata/internal/twca/dirty.go"`,
		`"uriBaseId": "%SRCROOT%"`,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("SARIF output missing %s\n%s", want, stdout)
		}
	}
}

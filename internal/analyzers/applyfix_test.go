package analyzers_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// TestFixableFixture checks the seeded per-generator violations fire
// (and nothing else does) before the round-trip test rewrites copies
// of them.
func TestFixableFixture(t *testing.T) {
	findings := checkFixture(t, "fixable", nil)
	if got := suppressedCount(findings); got != 2 {
		t.Errorf("suppressed findings = %d, want 2 (the helper-internal waivers)", got)
	}
	withFix := 0
	for _, f := range findings {
		if f.Fix != nil && !f.Suppressed {
			withFix++
		}
	}
	if withFix != 3 {
		t.Errorf("findings carrying a fix = %d, want 3 (AddSat, MulSat, collect-sort)", withFix)
	}
}

// copyFixture clones the fixable fixture into a temp dir so -fix can
// rewrite it without touching the pinned source.
func copyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "src", "fixable", "fixable.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fixable.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func analyzeDir(t *testing.T, dir string) []analyzers.Finding {
	t.Helper()
	pass, err := analyzers.LoadDir(fixtureConfig(), dir, "fixture/fixable")
	if err != nil {
		t.Fatal(err)
	}
	return analyzers.AnalyzeAll([]*analyzers.Pass{pass}, analyzers.All())
}

// TestApplyFixesRoundTrip is the -fix contract: applying every
// suggested fix resolves its finding, the rewritten file still
// parses/loads, and a second pass is a no-op (convergence).
func TestApplyFixesRoundTrip(t *testing.T) {
	dir := copyFixture(t)

	changed, dropped, err := analyzers.ApplyFixes(analyzeDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || !strings.HasSuffix(changed[0], "fixable.go") {
		t.Fatalf("changed = %v, want the one copied file", changed)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0 (the seeded fixes do not overlap)", dropped)
	}

	// The rewritten tree must be clean: every finding resolved, none
	// introduced (the collect-sort rewrite's own collecting range must
	// be recognized as exempt).
	after := analyzeDir(t, dir)
	for _, f := range after {
		if !f.Suppressed {
			t.Errorf("finding survives -fix: %s:%d [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
		}
	}

	// Convergence: a second -fix over the clean tree writes nothing.
	changed, dropped, err = analyzers.ApplyFixes(after)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 || dropped != 0 {
		t.Errorf("second pass changed=%v dropped=%d, want no-op", changed, dropped)
	}

	src, err := os.ReadFile(filepath.Join(dir, "fixable.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"AddSat(a, b)", "total = MulSat(total, k)", "slices.Sort(kKeys)"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("rewritten file missing %q", want)
		}
	}
}

// fixFinding wraps raw edits in the minimal Finding ApplyFixes needs.
func fixFinding(edits ...analyzers.TextEdit) analyzers.Finding {
	return analyzers.Finding{
		Rule:    analyzers.RuleSaturation,
		Pos:     token.Position{Filename: edits[0].Filename, Line: 1},
		Message: "synthetic",
		Fix:     &analyzers.Fix{Message: "synthetic", Edits: edits},
	}
}

// TestApplyFixesOverlapDeterministic pins the overlap policy: edits are
// applied in position order, a later edit overlapping an earlier one is
// dropped (and counted), and identical duplicate edits collapse.
func TestApplyFixesOverlapDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.go")
	src := "package f\n\nvar x = 1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	one := strings.Index(src, "1")

	findings := []analyzers.Finding{
		// Earliest edit wins: rewrites `x = 1` to `x = 3`.
		fixFinding(analyzers.TextEdit{Filename: path, Start: one - 4, End: one + 1, NewText: "x = 3"}),
		// Overlaps the winner: dropped.
		fixFinding(analyzers.TextEdit{Filename: path, Start: one, End: one + 1, NewText: "2"}),
		// Exact duplicate of the dropped edit: deduplicated, not
		// double-counted.
		fixFinding(analyzers.TextEdit{Filename: path, Start: one, End: one + 1, NewText: "2"}),
	}
	changed, dropped, err := analyzers.ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed = %v, want the temp file", changed)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "package f\n\nvar x = 3\n"; string(got) != want {
		t.Errorf("rewritten file = %q, want %q", got, want)
	}
}

// TestApplyFixesSkipsSuppressedAndFixless keeps -fix honest: a waived
// finding's fix must not be applied, and fix-free findings write
// nothing (the clean-tree no-op).
func TestApplyFixesSkipsSuppressedAndFixless(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.go")
	src := "package f\n\nvar x = 1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	suppressed := fixFinding(analyzers.TextEdit{Filename: path, Start: 0, End: 0, NewText: "// nope\n"})
	suppressed.Suppressed = true
	findings := []analyzers.Finding{
		suppressed,
		{Rule: analyzers.RuleDeterminism, Pos: token.Position{Filename: path, Line: 1}, Message: "no fix attached"},
	}
	changed, dropped, err := analyzers.ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 || dropped != 0 {
		t.Errorf("changed=%v dropped=%d, want untouched", changed, dropped)
	}
	got, _ := os.ReadFile(path)
	if string(got) != src {
		t.Errorf("file was rewritten: %q", got)
	}
}

// TestApplyFixesRejectsNonParsingRewrite pins the validation gate: a
// fix whose result does not survive go/format leaves the file
// untouched and surfaces an error instead.
func TestApplyFixesRejectsNonParsingRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.go")
	src := "package f\n\nvar x = 1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := []analyzers.Finding{
		fixFinding(analyzers.TextEdit{Filename: path, Start: 0, End: len(src), NewText: "not go source {{{"}),
	}
	if _, _, err := analyzers.ApplyFixes(findings); err == nil {
		t.Fatal("want an error for a non-parsing rewrite")
	}
	got, _ := os.ReadFile(path)
	if string(got) != src {
		t.Errorf("file corrupted by rejected fix: %q", got)
	}
}

package analyzers_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// fixtureConfig scopes the rules onto the fixture packages the same
// way DefaultConfig scopes them onto the real tree.
func fixtureConfig() analyzers.Config {
	return analyzers.Config{
		DeterministicPkgs: []string{"fixture/determinism", "fixture/jclstate", "fixture/fixable"},
		SaturatingTypes:   []string{"fixture/saturation.Time", "fixture/fixable.Time"},
		SaturationPkgs:    []string{"fixture/saturation", "fixture/fixable"},
		SoundflowPkgs:     []string{"fixture/soundflow"},
		UpperSources:      []string{"fixture/soundflow.Infinity"},
		SoundflowAllow:    []string{"fixture/soundflow.AllowedClamp"},
	}
}

// wantRE extracts the `// want "re1" "re2"` expectation comments the
// fixtures carry.
var wantRE = regexp.MustCompile(`// want (.*)$`)

// quotedRE extracts the individual quoted patterns of one want
// comment.
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// parseWants returns, per line, the message patterns the fixture file
// expects findings to match.
func parseWants(t *testing.T, path string) map[int][]*regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]*regexp.Regexp)
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
			re, err := regexp.Compile(q[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, q[1], err)
			}
			wants[i+1] = append(wants[i+1], re)
		}
	}
	return wants
}

// lineOf returns the 1-based line of the first occurrence of needle in
// the file, failing the test when absent.
func lineOf(t *testing.T, path, needle string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == needle {
			return i + 1
		}
	}
	t.Fatalf("%s: no line %q", path, needle)
	return 0
}

// checkFixture loads one fixture package, runs the full suite over it,
// and verifies the findings against the want comments. extraWants maps
// lines to patterns for findings that cannot carry a want comment
// (the bare-suppression finding sits on the directive's own line).
func checkFixture(t *testing.T, name string, extraWants map[int]*regexp.Regexp) []analyzers.Finding {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pass, err := analyzers.LoadDir(fixtureConfig(), dir, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	findings := analyzers.AnalyzeAll([]*analyzers.Pass{pass}, analyzers.All())

	wants := make(map[int][]*regexp.Regexp)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		for line, res := range parseWants(t, f) {
			wants[line] = append(wants[line], res...)
		}
	}
	for line, re := range extraWants {
		wants[line] = append(wants[line], re)
	}

	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		matched := false
		rest := wants[f.Pos.Line][:0:0]
		for _, re := range wants[f.Pos.Line] {
			if !matched && re.MatchString(f.Message) {
				matched = true
				continue
			}
			rest = append(rest, re)
		}
		wants[f.Pos.Line] = rest
		if !matched {
			t.Errorf("unexpected finding %s:%d [%s]: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
		}
	}
	for line, res := range wants {
		for _, re := range res {
			t.Errorf("missing finding at line %d matching %q", line, re)
		}
	}
	return findings
}

// suppressedCount counts directive-silenced findings.
func suppressedCount(findings []analyzers.Finding) int {
	n := 0
	for _, f := range findings {
		if f.Suppressed {
			n++
		}
	}
	return n
}

func TestDeterminismFixture(t *testing.T) {
	path := filepath.Join("testdata", "src", "determinism", "determinism.go")
	bareLine := lineOf(t, path, "//twcalint:ignore determinism")
	findings := checkFixture(t, "determinism", map[int]*regexp.Regexp{
		bareLine: regexp.MustCompile("without a reason"),
	})
	// Both the reasoned and the bare directive silence their map range.
	if got := suppressedCount(findings); got != 2 {
		t.Errorf("suppressed findings = %d, want 2", got)
	}
}

// TestJCLStateFixture mirrors the JCL scheduler's hit-streak state: the
// determinism rule (now scoped over internal/policy) must flag
// tie-breaks drawn from the shared math/rand global while accepting the
// injected seeded-RNG idiom the real jclScheduler uses.
func TestJCLStateFixture(t *testing.T) {
	findings := checkFixture(t, "jclstate", nil)
	if got := suppressedCount(findings); got != 0 {
		t.Errorf("suppressed findings = %d, want 0", got)
	}
	det := 0
	for _, f := range findings {
		if f.Rule == analyzers.RuleDeterminism && strings.Contains(f.Message, "shared random source") {
			det++
		}
	}
	if det != 2 {
		t.Errorf("shared-random-source findings = %d, want 2 (rankGlobal, reseedGlobal)", det)
	}
}

func TestSaturationFixture(t *testing.T) {
	findings := checkFixture(t, "saturation", nil)
	if got := suppressedCount(findings); got != 1 {
		t.Errorf("suppressed findings = %d, want 1", got)
	}
}

// TestSoundflowFixture covers the bound-direction taint: min against
// unproven operands, minuend subtraction and clamp-downs fire; the
// guard idiom, min/max of proven bounds and the allowlisted clamp do
// not.
func TestSoundflowFixture(t *testing.T) {
	findings := checkFixture(t, "soundflow", nil)
	if got := suppressedCount(findings); got != 1 {
		t.Errorf("suppressed findings = %d, want 1", got)
	}
}

// TestUpperResultTransitive: the call-graph fixed point carries the
// upper-bound summary through every call level, not just one: loosen
// returns Infinity and wrap returns loosen(), so both are sources.
func TestUpperResultTransitive(t *testing.T) {
	pass, err := analyzers.LoadDir(fixtureConfig(), filepath.Join("testdata", "src", "soundflow"), "fixture/soundflow")
	if err != nil {
		t.Fatal(err)
	}
	prog := analyzers.BuildProgram([]*analyzers.Pass{pass})
	for _, id := range []string{"fixture/soundflow.loosen", "fixture/soundflow.wrap"} {
		if fi := prog.Func(id); fi == nil || !fi.UpperResult {
			t.Errorf("%s: UpperResult not set", id)
		}
	}
}

// TestFixturesFailTheRun mirrors the CLI contract: every rule family's
// fixture must yield at least one unsuppressed finding of that family
// (the seeded violations), so `twca-lint` exits non-zero on each.
func TestFixturesFailTheRun(t *testing.T) {
	for _, name := range []string{"determinism", "saturation", "soundflow"} {
		pass, err := analyzers.LoadDir(fixtureConfig(), filepath.Join("testdata", "src", name), "fixture/"+name)
		if err != nil {
			t.Fatal(err)
		}
		unsuppressed := 0
		for _, f := range analyzers.AnalyzeAll([]*analyzers.Pass{pass}, analyzers.All()) {
			if !f.Suppressed && f.Rule == name {
				unsuppressed++
			}
		}
		if unsuppressed == 0 {
			t.Errorf("fixture %s: no unsuppressed %s finding; the seeded violation vanished", name, name)
		}
	}
}

// TestAnalyzeDeterministic pins the tool's own output order: two runs
// over the same fixture must produce identical finding lists.
func TestAnalyzeDeterministic(t *testing.T) {
	load := func() string {
		pass, err := analyzers.LoadDir(fixtureConfig(), filepath.Join("testdata", "src", "determinism"), "fixture/determinism")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range analyzers.Analyze(pass, analyzers.All()) {
			fmt.Fprintf(&b, "%s|%d|%d|%s|%s|%v\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message, f.Suppressed)
		}
		return b.String()
	}
	if a, b := load(), load(); a != b {
		t.Errorf("two runs disagree:\n%s\nvs\n%s", a, b)
	}
}

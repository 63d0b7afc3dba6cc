package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestParseDirectives(t *testing.T) {
	fset, f := parseOne(t, `package x

//twcalint:ignore soundflow exact model arithmetic
var a int

//twcalint:ignore determinism,saturation shared reason here
var b int

//twcalint:ignore saturation
var c int

// an unrelated comment
var d int
`)
	ds := parseDirectives(fset, f)
	if len(ds) != 3 {
		t.Fatalf("parsed %d directives, want 3", len(ds))
	}
	if d := ds[3]; d == nil || !d.covers(RuleSoundflow) || d.covers(RuleDeterminism) || !d.reason {
		t.Errorf("line 3 directive = %+v, want reasoned soundflow-only", d)
	}
	if d := ds[6]; d == nil || !d.covers(RuleDeterminism) || !d.covers(RuleSaturation) || d.covers(RuleSoundflow) {
		t.Errorf("line 6 directive = %+v, want determinism+saturation", d)
	}
	if d := ds[9]; d == nil || !d.covers(RuleSaturation) || d.reason {
		t.Errorf("line 9 directive = %+v, want bare saturation", d)
	}
	var nilDirective *directive
	if nilDirective.covers(RuleSoundflow) {
		t.Error("nil directive must cover nothing")
	}
}

// TestUnknownRuleWaiverIsReported keeps waivers honest: a directive
// naming a rule the suite does not have (a typo, or a retired rule)
// suppresses nothing, so it is reported under the suppression rule
// instead of silently rotting. Known rules, the suppression rule and
// the wildcard stay quiet.
func TestUnknownRuleWaiverIsReported(t *testing.T) {
	fset, f := parseOne(t, `package x

//twcalint:ignore saturaton typo of a live rule
var a int

//twcalint:ignore errretain a retired rule
var b int

//twcalint:ignore determinism,saturation,soundflow all live rules
var c int

//twcalint:ignore suppression the driver's own rule
var d int

//twcalint:ignore * wildcard
var e int
`)
	findings := Analyze(&Pass{Fset: fset, Files: []*ast.File{f}}, nil)
	var got []string
	for _, fd := range findings {
		if fd.Rule != RuleSuppression {
			t.Errorf("line %d: rule %q, want %q", fd.Pos.Line, fd.Rule, RuleSuppression)
		}
		got = append(got, fmt.Sprintf("%d:%s", fd.Pos.Line, fd.Message))
	}
	want := []string{
		`3:twcalint:ignore names unknown rule "saturaton"; it suppresses nothing, so fix the name or delete the directive`,
		`6:twcalint:ignore names unknown rule "errretain"; it suppresses nothing, so fix the name or delete the directive`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSortFindingsIsTotal(t *testing.T) {
	fs := []Finding{
		{Rule: "b", Pos: token.Position{Filename: "a.go", Line: 2, Column: 1}},
		{Rule: "a", Pos: token.Position{Filename: "a.go", Line: 2, Column: 1}},
		{Rule: "c", Pos: token.Position{Filename: "a.go", Line: 1, Column: 9}},
		{Rule: "c", Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}},
	}
	sortFindings(fs)
	got := ""
	for _, f := range fs {
		got += f.Pos.Filename + f.Rule
	}
	if want := "a.goca.goaa.gobb.goc"; got != want {
		t.Errorf("sorted order %q, want %q", got, want)
	}
}

func TestPathMatches(t *testing.T) {
	p := &Pass{ImportPath: "repro/internal/report"}
	if !p.pathMatches([]string{"internal/report"}) {
		t.Error("suffix on element boundary must match")
	}
	q := &Pass{ImportPath: "repro/internal/reporting"}
	if q.pathMatches([]string{"internal/report"}) {
		t.Error("partial path element must not match")
	}
	r := &Pass{ImportPath: "internal/report"}
	if !r.pathMatches([]string{"internal/report"}) {
		t.Error("exact path must match")
	}
}

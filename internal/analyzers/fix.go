package analyzers

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/types"
	"os"
	"sort"
	"strings"
)

// fix.go: machine-applicable rewrites. A Fix is a set of byte-offset
// text edits that resolves its finding; `twca-lint -fix` applies every
// fix of the run deterministically (edits sorted by position,
// overlapping edits dropped) and validates each rewritten file by
// running it through go/format before writing — a fix that does not
// parse is a bug in the fix generator and aborts the write, never the
// file.

// TextEdit replaces the byte range [Start, End) of Filename with
// NewText.
type TextEdit struct {
	Filename string `json:"file"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	NewText  string `json:"new_text"`
}

// Fix is one machine-applicable resolution for a finding.
type Fix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// reportFix records a finding carrying a suggested fix.
func (p *Pass) reportFix(n ast.Node, rule string, fix *Fix, formatStr string, args ...any) {
	p.findings = append(p.findings, Finding{
		Rule:    rule,
		Pos:     p.Fset.Position(n.Pos()),
		Message: fmt.Sprintf(formatStr, args...),
		Fix:     fix,
	})
}

// editReplace builds the edit that replaces n's source range.
func (p *Pass) editReplace(n ast.Node, text string) TextEdit {
	start := p.Fset.Position(n.Pos())
	end := p.Fset.Position(n.End())
	return TextEdit{Filename: start.Filename, Start: start.Offset, End: end.Offset, NewText: text}
}

// fileOf returns the pass file whose range contains n, or nil.
func (p *Pass) fileOf(n ast.Node) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= n.Pos() && n.Pos() <= f.FileEnd {
			return f
		}
	}
	return nil
}

// importName returns the name under which f imports the package whose
// path ends in pathSuffix ("" when absent or dot-imported).
func (p *Pass) importName(f *ast.File, pathSuffix string) string {
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		if path != pathSuffix && !strings.HasSuffix(path, "/"+pathSuffix) {
			continue
		}
		if spec.Name != nil {
			if spec.Name.Name == "." || spec.Name.Name == "_" {
				return ""
			}
			return spec.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// importEdit returns the edit that inserts an import of path into f's
// first parenthesized import block, keeping the block sorted. ok is
// false when the file has no such block (single-import files are rare
// enough to not bother rewriting the decl form).
func (p *Pass) importEdit(f *ast.File, path string) (TextEdit, bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok.String() != "import" || !gd.Lparen.IsValid() {
			continue
		}
		quoted := fmt.Sprintf("%q", path)
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			if is.Path.Value >= quoted {
				pos := p.Fset.Position(spec.Pos())
				return TextEdit{Filename: pos.Filename, Start: pos.Offset, End: pos.Offset,
					NewText: quoted + "\n\t"}, true
			}
		}
		if n := len(gd.Specs); n > 0 {
			pos := p.Fset.Position(gd.Specs[n-1].End())
			return TextEdit{Filename: pos.Filename, Start: pos.Offset, End: pos.Offset,
				NewText: "\n\t" + quoted}, true
		}
	}
	return TextEdit{}, false
}

// ApplyFixes applies every fix carried by the findings: edits are
// grouped per file, sorted by position, deduplicated, and applied with
// later-overlapping edits dropped (deterministically — the earliest
// edit wins). Each rewritten file must survive go/format (parse +
// gofmt) or the whole file write is abandoned with an error. Returns
// the files written and the number of overlapping edits dropped.
func ApplyFixes(findings []Finding) (changed []string, dropped int, err error) {
	byFile := make(map[string][]TextEdit)
	for _, f := range findings {
		if f.Fix == nil || f.Suppressed {
			continue
		}
		for _, e := range f.Fix.Edits {
			byFile[e.Filename] = append(byFile[e.Filename], e)
		}
	}
	files := make([]string, 0, len(byFile))
	for name := range byFile {
		files = append(files, name)
	}
	sort.Strings(files)

	for _, name := range files {
		edits := byFile[name]
		sort.Slice(edits, func(i, j int) bool {
			a, b := edits[i], edits[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.End != b.End {
				return a.End < b.End
			}
			return a.NewText < b.NewText
		})
		// Dedupe identical edits (two findings may propose the same
		// rewrite), then drop overlaps.
		kept := edits[:0]
		prevEnd := -1
		var prev TextEdit
		for i, e := range edits {
			if i > 0 && e == prev {
				continue
			}
			prev = e
			if e.Start < prevEnd {
				dropped++
				continue
			}
			kept = append(kept, e)
			prevEnd = e.End
		}

		src, rerr := os.ReadFile(name)
		if rerr != nil {
			return changed, dropped, fmt.Errorf("analyzers: applying fixes: %v", rerr)
		}
		out := applyEdits(src, kept)
		formatted, ferr := format.Source(out)
		if ferr != nil {
			return changed, dropped, fmt.Errorf("analyzers: fix for %s does not parse (fix generator bug, file left untouched): %v", name, ferr)
		}
		if string(formatted) == string(src) {
			continue
		}
		info, serr := os.Stat(name)
		mode := os.FileMode(0o644)
		if serr == nil {
			mode = info.Mode()
		}
		if werr := os.WriteFile(name, formatted, mode); werr != nil {
			return changed, dropped, fmt.Errorf("analyzers: writing %s: %v", name, werr)
		}
		changed = append(changed, name)
	}
	return changed, dropped, nil
}

// applyEdits applies position-sorted, non-overlapping edits to src.
func applyEdits(src []byte, edits []TextEdit) []byte {
	var out []byte
	last := 0
	for _, e := range edits {
		if e.Start < last || e.Start > len(src) || e.End > len(src) {
			continue // defensive: malformed offsets never corrupt the file
		}
		out = append(out, src[last:e.Start]...)
		out = append(out, e.NewText...)
		last = e.End
	}
	out = append(out, src[last:]...)
	return out
}

// saturatingQualifier returns the prefix for the AddSat/MulSat helpers
// as seen from f: "" when the pass's own package defines them (the
// fixture case), "<name>." when the curves package is imported, and
// ok=false when neither holds (no fix can be offered).
func (p *Pass) saturatingQualifier(f *ast.File) (string, bool) {
	if p.Pkg != nil && p.Pkg.Scope().Lookup("AddSat") != nil {
		return "", true
	}
	if name := p.importName(f, "internal/curves"); name != "" {
		return name + ".", true
	}
	return "", false
}

// satBinaryFix rewrites `a + b` / `a * b` on a saturating type into
// the guarded helper call.
func (p *Pass) satBinaryFix(f *ast.File, n *ast.BinaryExpr, helper string) *Fix {
	q, ok := p.saturatingQualifier(f)
	if !ok {
		return nil
	}
	text := fmt.Sprintf("%s%s(%s, %s)", q, helper, types.ExprString(n.X), types.ExprString(n.Y))
	return &Fix{
		Message: fmt.Sprintf("replace with %s%s", q, helper),
		Edits:   []TextEdit{p.editReplace(n, text)},
	}
}

// satAssignFix rewrites `x += y` / `x *= y` into `x = AddSat(x, y)` /
// `x = MulSat(x, y)`.
func (p *Pass) satAssignFix(f *ast.File, n *ast.AssignStmt, helper string) *Fix {
	q, ok := p.saturatingQualifier(f)
	if !ok {
		return nil
	}
	lhs := types.ExprString(n.Lhs[0])
	text := fmt.Sprintf("%s = %s%s(%s, %s)", lhs, q, helper, lhs, types.ExprString(n.Rhs[0]))
	return &Fix{
		Message: fmt.Sprintf("replace with %s%s", q, helper),
		Edits:   []TextEdit{p.editReplace(n, text)},
	}
}

// collectSortFix rewrites an order-observing map range into the
// collect-then-sort idiom:
//
//	for k, v := range m { body }
//
// becomes
//
//	ks := make([]K, 0, len(m))
//	for k := range m {
//		ks = append(ks, k)
//	}
//	slices.Sort(ks)
//	for _, k := range ks {
//		v := m[k]
//		body
//	}
//
// Offered only when the key is an identifier of an ordered basic type
// (so slices.Sort applies) and the range uses :=. Inserts the slices
// import when missing.
func (p *Pass) collectSortFix(f *ast.File, rng *ast.RangeStmt) *Fix {
	if rng.Tok.String() != ":=" {
		return nil
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	keyType := p.TypeOf(rng.Key)
	if keyType == nil {
		return nil
	}
	basic, ok := keyType.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsOrdered == 0 {
		return nil
	}
	unresolved := false
	typeName := types.TypeString(keyType, func(other *types.Package) string {
		if other == p.Pkg {
			return ""
		}
		name := p.importName(f, other.Path())
		if name == "" {
			unresolved = true
		}
		return name
	})
	if unresolved || strings.Contains(typeName, "invalid") {
		return nil
	}
	m := types.ExprString(rng.X)
	ks := key.Name + "Keys"

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", ks, typeName, m)
	fmt.Fprintf(&b, "for %s := range %s {\n\t%s = append(%s, %s)\n}\n", key.Name, m, ks, ks, key.Name)
	fmt.Fprintf(&b, "slices.Sort(%s)\n", ks)
	fmt.Fprintf(&b, "for _, %s := range %s {", key.Name, ks)
	if val, ok := rng.Value.(*ast.Ident); ok && val.Name != "_" {
		fmt.Fprintf(&b, "\n\t%s := %s[%s]", val.Name, m, key.Name)
	}

	// Replace from the `for` keyword through the body's opening brace;
	// the original body (and closing brace) survives unchanged.
	start := p.Fset.Position(rng.Pos())
	end := p.Fset.Position(rng.Body.Lbrace + 1)
	edits := []TextEdit{{Filename: start.Filename, Start: start.Offset, End: end.Offset, NewText: b.String()}}
	if p.importName(f, "slices") == "" {
		imp, ok := p.importEdit(f, "slices")
		if !ok {
			return nil
		}
		edits = append(edits, imp)
	}
	return &Fix{Message: "collect keys, sort, then iterate", Edits: edits}
}

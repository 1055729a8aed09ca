package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// AllowPrefix is the comment directive that suppresses one analyzer at
// one site: `//vuvuzela:allow <analyzer> <reason>`. The reason is
// mandatory — an allowlist entry that does not explain itself is itself
// a finding — and the comment covers diagnostics on its own line and on
// the line directly below it, so it can sit at the end of the flagged
// line or alone just above it.
const AllowPrefix = "//vuvuzela:allow"

// allow is one parsed `//vuvuzela:allow` comment.
type allow struct {
	// Analyzer is the name of the analyzer being suppressed.
	Analyzer string
	// Reason is the mandatory justification (rest of the comment).
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
	// File is the file the comment sits in; the allow only covers
	// diagnostics in the same file.
	File string
	// Line is the comment's line; the allow covers diagnostics on
	// Line and Line+1.
	Line int
	// Used is set by filter when the allow suppressed a diagnostic.
	Used bool
}

// collectAllows extracts every `//vuvuzela:allow` comment from files.
// Malformed entries — a missing analyzer name, an analyzer not in
// known, or an empty reason — are returned as diagnostics so Check
// reports them as findings rather than silently ignoring them.
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]*allow, []Diagnostic) {
	var allows []*allow
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					bad = append(bad, Diagnostic{Pos: c.Pos(), Message: "malformed allowlist comment: want //vuvuzela:allow <analyzer> <reason>"})
					continue
				case !known[fields[0]]:
					bad = append(bad, Diagnostic{Pos: c.Pos(), Message: "allowlist comment names unknown analyzer " + strconv.Quote(fields[0])})
					continue
				case len(fields) < 2:
					bad = append(bad, Diagnostic{Pos: c.Pos(), Message: "allowlist entry for " + fields[0] + " has no reason; every suppression must explain itself"})
					continue
				}
				pos := fset.Position(c.Pos())
				allows = append(allows, &allow{
					Analyzer: fields[0],
					Reason:   strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
					Pos:      c.Pos(),
					File:     pos.Filename,
					Line:     pos.Line,
				})
			}
		}
	}
	return allows, bad
}

// filter drops from diags every diagnostic covered by an allow for
// analyzer name (same file, same line as the comment or the line below
// it), marking those allows Used. It returns the surviving diagnostics.
func filter(fset *token.FileSet, name string, diags []Diagnostic, allows []*allow) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, a := range allows {
			if a.Analyzer == name && a.File == pos.Filename && (a.Line == pos.Line || a.Line == pos.Line-1) {
				a.Used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// unusedAllows returns one diagnostic per allow that never suppressed
// anything: a stale entry hides nothing today but would silently mask a
// future regression at that site, so Check reports it.
func unusedAllows(allows []*allow) []Diagnostic {
	var diags []Diagnostic
	for _, a := range allows {
		if !a.Used {
			diags = append(diags, Diagnostic{Pos: a.Pos, Message: "unused allowlist entry for " + a.Analyzer + "; remove it (it suppresses nothing)"})
		}
	}
	return diags
}

// Package vettest runs one vet analyzer over a fixture package and
// checks its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the in-repo
// framework. The fixture is loaded by loader.Load and checked by
// analysis.Check, the cmd/vuvuzela-vet driver's own path, so allowlist
// comments apply exactly as in production: suppressed findings must
// have no want, and stale or malformed `//vuvuzela:allow` entries
// surface as diagnostics from the pseudo-analyzer "allowlist" that
// fixtures can want like any other finding.
package vettest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vuvuzela/internal/vet/analysis"
	"vuvuzela/internal/vet/loader"
)

// wantRe extracts the expectation comment of a fixture line. Both
// `// want "re"` and the directive form `//want:doccov "re"` are
// accepted: a comment directive (`//word:word`, per go/ast) is
// invisible to ast.CommentGroup.Text(), which doc-coverage fixtures
// need so the expectation itself does not count as documentation of
// the flagged declaration.
var wantRe = regexp.MustCompile(`//\s*want(?::[a-z0-9]+)?[ \t]+(.*)$`)

// Run loads importPath from the fixture module at moduleDir, applies
// the analyzer plus the driver's allowlist semantics, and reports any
// mismatch against the fixture's `// want` comments as test failures.
func Run(t *testing.T, a *analysis.Analyzer, moduleDir, importPath string) {
	t.Helper()
	pkgs, err := loader.Load(moduleDir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s matched %d packages, want 1", importPath, len(pkgs))
	}
	pkg := pkgs[0]
	got, err := analysis.Check([]*analysis.Analyzer{a}, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}

	// Collect wants per file:line.
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parseWants(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				k := key{pos.Filename, pos.Line}
				wants[k] = append(wants[k], res...)
			}
		}
	}

	used := make([]bool, len(got))
	for k, res := range wants {
		for _, re := range res {
			matched := false
			for i, d := range got {
				if !used[i] && d.Pos.Filename == k.file && d.Pos.Line == k.line && re.MatchString(d.Message) {
					used[i] = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
	for i, d := range got {
		if !used[i] {
			t.Errorf("%s:%d: unexpected diagnostic from %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
}

// parseWants splits the tail of a want comment into its quoted regexps
// (double- or back-quoted, space-separated).
func parseWants(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			var err error
			lit, err = strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			lit = s[1 : end+1]
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want expectation must be a quoted regexp, got %q", s)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, err
		}
		res = append(res, re)
	}
	return res, nil
}

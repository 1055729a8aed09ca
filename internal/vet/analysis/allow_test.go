package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseOne parses src as a single file with comments.
func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// posAtLine fabricates a Pos on the given 1-based line of the file.
func posAtLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}

func TestCollectAllowsMalformed(t *testing.T) {
	fset, files := parseOne(t, `package p

//vuvuzela:allow
func a() {}

//vuvuzela:allow consttime
func b() {}

//vuvuzela:allow nosuch reason here
func c() {}

//vuvuzela:allow consttime handshake transcript is attacker-visible
func d() {}
`)
	allows, bad := collectAllows(fset, files, map[string]bool{"consttime": true})
	if len(allows) != 1 {
		t.Fatalf("want 1 well-formed allow, got %d", len(allows))
	}
	if got := allows[0].Reason; got != "handshake transcript is attacker-visible" {
		t.Fatalf("reason = %q", got)
	}
	if len(bad) != 3 {
		t.Fatalf("want 3 malformed diagnostics, got %d: %v", len(bad), bad)
	}
	var msgs []string
	for _, d := range bad {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, wantSub := range []string{
		"want //vuvuzela:allow <analyzer> <reason>",
		"has no reason",
		`unknown analyzer "nosuch"`,
	} {
		if !strings.Contains(joined, wantSub) {
			t.Errorf("missing malformed diagnostic containing %q in:\n%s", wantSub, joined)
		}
	}
}

func TestFilterCoversSameAndNextLine(t *testing.T) {
	fset, files := parseOne(t, `package p

//vuvuzela:allow consttime reason one
var a = 1 // diagnostic target on the line below the comment

var b = 2 //vuvuzela:allow consttime reason two
`)
	allows, bad := collectAllows(fset, files, map[string]bool{"consttime": true})
	if len(bad) != 0 || len(allows) != 2 {
		t.Fatalf("allows=%d bad=%v", len(allows), bad)
	}
	// One diagnostic on line 4 (covered by the line-3 comment), one on
	// line 6 (covered by its own line), one on line 1 (uncovered).
	mk := func(line int) Diagnostic {
		return Diagnostic{Pos: posAtLine(fset, files[0], line), Message: "x"}
	}
	kept := filter(fset, "consttime", []Diagnostic{mk(4), mk(6), mk(1)}, allows)
	if len(kept) != 1 || fset.Position(kept[0].Pos).Line != 1 {
		t.Fatalf("kept = %v", kept)
	}
	if u := unusedAllows(allows); len(u) != 0 {
		t.Fatalf("unexpected unused allows: %v", u)
	}
}

func TestFilterIsPerAnalyzer(t *testing.T) {
	fset, files := parseOne(t, `package p

//vuvuzela:allow consttime this names a different analyzer
var a = 1
`)
	allows, bad := collectAllows(fset, files, map[string]bool{"consttime": true, "cryptorand": true})
	if len(bad) != 0 || len(allows) != 1 {
		t.Fatalf("allows=%d bad=%v", len(allows), bad)
	}
	d := Diagnostic{Pos: posAtLine(fset, files[0], 4), Message: "x"}
	if kept := filter(fset, "cryptorand", []Diagnostic{d}, allows); len(kept) != 1 {
		t.Fatalf("allow for consttime suppressed a cryptorand diagnostic")
	}
	if u := unusedAllows(allows); len(u) != 1 {
		t.Fatalf("want the consttime allow reported unused, got %v", u)
	}
}

// Package analysis is the minimal in-repo equivalent of
// golang.org/x/tools/go/analysis: the Analyzer/Pass/Diagnostic contract
// that cmd/vuvuzela-vet's checkers are written against. It exists because
// the module deliberately has zero third-party dependencies (see go.mod);
// the API mirrors the upstream shapes closely enough that the analyzers
// could be ported to the real framework by changing only imports.
//
// An Analyzer inspects one type-checked package at a time (a Pass) and
// reports Diagnostics. Check — not the analyzer — applies the
// `//vuvuzela:allow` suppression comments (see allow.go), so every
// analyzer gets identical allowlist semantics for free, and the driver
// and the fixture tests run the same code.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (used in diagnostics and
// in `//vuvuzela:allow <name> <reason>` comments), a doc string stating
// the invariant it proves, and the Run function applied to each package.
type Analyzer struct {
	// Name identifies the analyzer in output and allowlist comments.
	// It must be a single lowercase word.
	Name string
	// Doc states the invariant the analyzer encodes, first line short.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	// The returned error aborts the whole vet run (reserved for
	// analyzer-internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked, non-test package through an Analyzer.
// Test files are never part of a Pass: the loader feeds only production
// GoFiles, which is how every analyzer exempts tests uniformly.
type Pass struct {
	// Analyzer is the check this pass is running.
	Analyzer *Analyzer
	// Fset maps token.Pos in Files to file positions.
	Fset *token.FileSet
	// Files are the package's parsed production sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package (import path, scope).
	Pkg *types.Package
	// TypesInfo records uses/defs/types for expressions in Files.
	TypesInfo *types.Info
	// Report delivers one finding to the driver.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position inside the pass's FileSet and a
// human-readable message. Check attaches the analyzer name.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message explains the violated invariant and the fix.
	Message string
}

// Finding is one diagnostic that survived the allowlist, labelled with
// the analyzer that reported it ("allowlist" for a malformed or unused
// `//vuvuzela:allow` entry).
type Finding struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message explains the violated invariant and the fix.
	Message string
}

// Check runs analyzers over one type-checked package and applies the
// allowlist: a finding covered by a justified entry for its analyzer is
// dropped, and an entry that is malformed, names an analyzer outside
// analyzers, or suppresses nothing is a finding of its own. An
// analyzer's error aborts the check.
func Check(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows, malformed := collectAllows(fset, files, known)
	var findings []Finding
	add := func(analyzer string, diags []Diagnostic) {
		for _, d := range diags {
			findings = append(findings, Finding{fset.Position(d.Pos), analyzer, d.Message})
		}
	}
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
		add(a.Name, filter(fset, a.Name, diags, allows))
	}
	add("allowlist", malformed)
	add("allowlist", unusedAllows(allows))
	return findings, nil
}

// IsNamedPkg reports whether path is exactly prefix or a subpackage of
// it ("a/b" matches "a/b" and "a/b/c", not "a/bc"). Analyzers use it to
// scope themselves to the package trees their invariant covers.
func IsNamedPkg(path, prefix string) bool {
	return path == prefix || (len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/')
}

// ObjectOf resolves an identifier (possibly the Sel of a selector) to
// its types.Object, or nil.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// PkgFunc reports whether call is a call of the package-level function
// pkgPath.name, resolved through the type info (so import aliases and
// shadowing are handled correctly).
func PkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := ObjectOf(info, sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// vuvuzela-vet is the project's static-analysis multichecker: it proves
// the threat-model invariants of docs/THREAT_MODEL.md §§2–3 at build
// time by running five project-specific analyzers over the module's
// production packages (test files are exempt by construction):
//
//	plaintexttransport  no net.Dial/net.Listen or transport.TCP outside
//	                    internal/transport and internal/sim
//	cryptorand          no math/rand in security-critical packages
//	consttime           no variable-time comparison of secret material
//	errclass            no fmt.Errorf %v/%s on errors where RemoteError
//	                    classification depends on unwrapping
//	doccov              every exported identifier carries godoc
//
// A finding is suppressed only by an explicit, justified comment on the
// flagged line (or the line above it):
//
//	//vuvuzela:allow <analyzer> <reason>
//
// Allowlist entries with no reason, naming an unknown analyzer, or
// suppressing nothing are themselves findings, so the allowlist can
// only ever shrink silently, never grow.
//
// Usage:
//
//	vuvuzela-vet [-list] [packages...]   (default ./...)
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"vuvuzela/internal/vet/analysis"
	"vuvuzela/internal/vet/analyzers/consttime"
	"vuvuzela/internal/vet/analyzers/cryptorand"
	"vuvuzela/internal/vet/analyzers/doccov"
	"vuvuzela/internal/vet/analyzers/errclass"
	"vuvuzela/internal/vet/analyzers/plaintexttransport"
	"vuvuzela/internal/vet/loader"
)

// analyzers is the multichecker's suite, in output order.
var analyzers = []*analysis.Analyzer{
	plaintexttransport.Analyzer,
	cryptorand.Analyzer,
	consttime.Analyzer,
	errclass.Analyzer,
	doccov.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the multichecker and returns the process exit status;
// it is main minus os.Exit so the tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vuvuzela-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vuvuzela-vet: %v\n", err)
		return 2
	}

	var findings []analysis.Finding
	for _, pkg := range pkgs {
		found, err := analysis.Check(analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			fmt.Fprintf(stderr, "vuvuzela-vet: %v\n", err)
			return 2
		}
		findings = append(findings, found...)
	}

	slices.SortStableFunc(findings, func(a, b analysis.Finding) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
		)
	})
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vuvuzela-vet: %d findings\n", len(findings))
		return 1
	}
	return 0
}

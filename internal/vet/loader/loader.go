// Package loader type-checks the module's production packages for
// cmd/vuvuzela-vet without golang.org/x/tools: target packages are
// parsed from source (with comments, so allowlist directives and doc
// coverage are visible), while every dependency — standard library and
// intra-module alike — is imported from the compiler export data that
// `go list -export` reports out of the build cache. That keeps the vet
// suite dependency-free and works fully offline, at the cost of
// requiring the tree to build (which `make lint` wants anyway).
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked production package ready for the
// analyzers: parsed files (no _test.go), types, and resolution info.
type Package struct {
	// ImportPath is the package's import path (e.g. vuvuzela/internal/wire).
	ImportPath string
	// Dir is the package's source directory.
	Dir string
	// Fset is the file set all Files positions resolve against.
	Fset *token.FileSet
	// Files are the parsed production sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds uses/defs/types for expressions in Files.
	Info *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns (e.g. "./...") in moduleDir with the go tool and
// returns every matched package parsed and type-checked. Any list,
// parse, or type error aborts the load: the analyzers prove invariants
// about a tree that compiles, so a broken tree is a lint failure of its
// own kind.
func Load(moduleDir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("go list: %v: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("go list: %w", err)
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter imports dependencies from the export data files that
// `go list -export` reported (build-cache paths, stdlib included).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// check parses the named files and type-checks them as one package.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

package loader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a module named m in a temporary directory, one
// file per entry of files (path relative to the module root).
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoad: every matched package comes back parsed with comments and
// type-checked, test files left out, its intra-module imports resolved.
func TestLoad(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go":      "// Package a is imported by b.\npackage a\n\n// N is a constant.\nconst N = 1\n",
		"b/b.go":      "// Package b imports a.\npackage b\n\nimport \"m/a\"\n\n// M is derived from a.N.\nconst M = a.N + 1\n",
		"b/b_test.go": "package b\n\nvar notLoaded = undefined\n",
	})
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	if strings.Join(paths, " ") != "m/a m/b" {
		t.Fatalf("loaded %v, want [m/a m/b]", paths)
	}
	b := pkgs[1]
	if len(b.Files) != 1 || len(b.Files[0].Comments) == 0 {
		t.Fatalf("m/b: %d files, want b.go alone, with its comments", len(b.Files))
	}
	if b.Types.Scope().Lookup("M") == nil || len(b.Info.Uses) == 0 {
		t.Fatal("m/b was not type-checked")
	}
}

// TestLoadRefusesBrokenPackage: one package that does not type-check
// fails the whole load with an error naming it, and no partial result.
func TestLoadRefusesBrokenPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"good/good.go":     "// Package good type-checks.\npackage good\n",
		"broken/broken.go": "// Package broken does not type-check.\npackage broken\n\nvar X int = \"not an int\"\n",
	})
	pkgs, err := Load(dir, "./...")
	if err == nil {
		t.Fatalf("loaded %d packages from a module that does not type-check", len(pkgs))
	}
	if pkgs != nil {
		t.Errorf("returned %d packages beside the error, want none", len(pkgs))
	}
	if !strings.Contains(err.Error(), "m/broken") {
		t.Errorf("error does not name m/broken: %v", err)
	}
}

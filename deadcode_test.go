//go:build deadcode

package vuvuzela

// Production code is what a binary links. TestEveryFunctionLinked builds
// every main package of the module, the benchmark module's binary and an
// arm64 server, reads their symbol tables, and fails for every function
// declared in a non-test file that none of them links, unless an entry of
// deadcodeAllow names it with a reason. `make deadcode` runs it (go test
// -tags deadcode -run TestEveryFunctionLinked .); tier-1 never compiles
// this file.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow is every function no binary links that stays in a
// non-test file, keyed by symbol (as go tool nm prints it, type
// parameters dropped), by file (module-relative) or by package (import
// path). Each value is the reason; an entry that matches no unlinked
// function fails the test, so the list cannot outlive what it excuses.
var deadcodeAllow = map[string]string{
	// Harness: code that exists for the tests and the in-process
	// deployment, not for an operator's binary.
	"vuvuzela/internal/mixnet.StartChain":                         "harness: coordinator's and client's in-package tests start a chain with it; importing sim or deploy there is an import cycle",
	"vuvuzela/internal/mixnet.NewChainKeys":                       "harness: the keys StartChain's callers hand their clients",
	"vuvuzela/internal/mixnet.(*Server).LastRound":                "harness: the restart matrices' durable-counter oracle",
	"vuvuzela/internal/mixnet.(*ShardServer).LastRound":           "harness: the restart matrices' durable-counter oracle",
	"vuvuzela/internal/sim.(*ChainNet).Nodes":                     "harness: the suites' list of every process to kill or restart",
	"vuvuzela/internal/sim.(*ChainNet).ExchangedRounds":           "harness: the restart matrix's check that no round is exchanged twice",
	"vuvuzela/internal/sim.(*ChainNet).RunRounds":                 "harness: the suites' back-to-back rounds with a swarm attached",
	"vuvuzela/internal/coordinator.(*Coordinator).RunConvoRounds": "harness: `sim.ChainNet.RunRounds`' pipelined rounds",
	"internal/sim/leak.go":                                        "harness: the suites' goroutine-leak check",
	"internal/transport/faulty.go":                                "harness: fault and MITM injection for the in-process suites",
	"vuvuzela/internal/vet/vettest":                               "harness: runs each analyzer over its fixtures",

	// Interface: methods that exist to satisfy an interface, whichever of
	// them a binary happens to call.
	"vuvuzela/internal/client.MessageEvent.isEvent":         "interface: seals client.Event",
	"vuvuzela/internal/client.InvitationEvent.isEvent":      "interface: seals client.Event",
	"vuvuzela/internal/client.ConvoRoundEvent.isEvent":      "interface: seals client.Event",
	"vuvuzela/internal/client.DialRoundEvent.isEvent":       "interface: seals client.Event",
	"vuvuzela/internal/client.ErrorEvent.isEvent":           "interface: seals client.Event",
	"vuvuzela/internal/transport.(*Secure).LocalAddr":       "interface: net.Conn",
	"vuvuzela/internal/transport.(*Secure).RemoteAddr":      "interface: net.Conn",
	"vuvuzela/internal/transport.(*Secure).SetReadDeadline": "interface: net.Conn",
	"vuvuzela/internal/transport.(*memListener).Addr":       "interface: net.Listener",
	"vuvuzela/internal/transport.memAddr.Network":           "interface: net.Addr",
	"vuvuzela/internal/transport.memAddr.String":            "interface: net.Addr",
	"vuvuzela/internal/privacy.Protocol.String":             "interface: fmt.Stringer",

	// Facade API: the root package's API for library users, which no
	// binary of this module happens to call.
	"vuvuzela.GenerateKeyPair":                               "facade API: a library user's key pair",
	"vuvuzela.(*Network).StartRounds":                        "facade API: timer-driven rounds on an in-process network",
	"vuvuzela/internal/client.(*Client).QueueLen":            "facade API: a method of the aliased vuvuzela.Client",
	"vuvuzela/internal/client.(*Client).ActivePeer":          "facade API: a method of the aliased vuvuzela.Client",
	"vuvuzela/internal/client.(*Client).ActivePeers":         "facade API: a method of the aliased vuvuzela.Client",
	"vuvuzela/internal/client.(*Client).EndConversationWith": "facade API: a method of the aliased vuvuzela.Client",
}

func TestEveryFunctionLinked(t *testing.T) {
	dir := t.TempDir()
	pkgs := goList(t)

	// One binary per main package, plus bench/ (its own module, so not
	// in go list ./...) and the server for arm64, whose build is the only
	// one that links the generic field (internal/crypto/x25519/fe_other.go).
	var mains []string
	for _, p := range pkgs {
		if p.name == "main" {
			mains = append(mains, p.path)
		}
	}
	goBuild(t, "", "", append([]string{"-o", dir + "/"}, mains...)...)
	goBuild(t, "", "bench", "-o", filepath.Join(dir, "bench.bin"), ".")
	arm := filepath.Join(dir, "vuvuzela-server.arm64")
	goBuild(t, "arm64", "", "-o", arm, "./cmd/vuvuzela-server")

	// Library symbols count from any binary; a main package's own
	// (main.*) only from its own binaries.
	linked := map[string]bool{}
	own := map[string]map[string]bool{}
	for _, p := range mains {
		bins := []string{filepath.Join(dir, filepath.Base(p))}
		if p == "vuvuzela/cmd/vuvuzela-server" {
			bins = append(bins, arm)
		}
		own[p] = map[string]bool{}
		for _, b := range bins {
			for s := range symbols(t, b) {
				if strings.HasPrefix(s, "main.") {
					own[p][s] = true
				} else {
					linked[s] = true
				}
			}
		}
	}
	for s := range symbols(t, filepath.Join(dir, "bench.bin")) {
		linked[s] = true
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var unlinked []string
	for _, p := range pkgs {
		set, prefix := linked, p.path
		if p.name == "main" {
			set, prefix = own[p.path], "main"
		}
		for _, f := range declared(t, p.dir) {
			sym := prefix + "." + f.name
			if set[sym] || set[sym+".abi0"] || f.wrapper != "" && set[prefix+"."+f.wrapper] {
				continue
			}
			rel, err := filepath.Rel(root, f.pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			if key := allowed(p.path+"."+f.name, filepath.ToSlash(rel), p.path); key != "" {
				used[key] = true
				continue
			}
			unlinked = append(unlinked, fmt.Sprintf("%s:%d: %s.%s (%d lines)", rel, f.pos.Line, p.path, f.name, f.lines))
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s is linked into no binary: delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
	var stale []string
	for key := range deadcodeAllow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("stale allowlist entry %q: it excuses no unlinked function; delete it", key)
	}
}

// allowed returns the deadcodeAllow entry covering the function, or "".
func allowed(sym, file, pkg string) string {
	for _, key := range []string{sym, file, pkg} {
		if _, ok := deadcodeAllow[key]; ok {
			return key
		}
	}
	return ""
}

type listedPkg struct{ path, name, dir string }

// goList lists the module's packages (bench/ is a module of its own).
func goList(t *testing.T) []listedPkg {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Name}} {{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, listedPkg{f[0], f[1], f[2]})
	}
	return pkgs
}

// goBuild runs go build in dir (the module root if "") for goarch (the
// host's if "") with inlining off, so a function the linker keeps is a
// symbol of its own and not a copy in its callers.
func goBuild(t *testing.T, goarch, dir string, args ...string) {
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l"}, args...)...)
	cmd.Dir = dir
	cmd.Env = os.Environ()
	if goarch != "" {
		cmd.Env = append(cmd.Env, "GOARCH="+goarch)
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// symbols returns the binary's symbol names with type arguments dropped
// (pkg.F[go.shape.int] → pkg.F, pkg.(*T[...]).M → pkg.(*T).M).
func symbols(t *testing.T, bin string) map[string]bool {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	syms := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		syms[dropTypeArgs(strings.Join(f[2:], " "))] = true
	}
	return syms
}

func dropTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type declaredFunc struct {
	name    string // F, (*T).M or T.M, as go tool nm prints it
	wrapper string // for a value method T.M, its pointer wrapper (*T).M
	pos     token.Position
	lines   int
}

// declared returns every named function and method in the directory's
// non-test files, whatever their build constraints.
func declared(t *testing.T, dir string) []declaredFunc {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var funcs []declaredFunc
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			f := declaredFunc{
				name:  fd.Name.Name,
				pos:   fset.Position(fd.Pos()),
				lines: fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1,
			}
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				star, ptr := typ.(*ast.StarExpr)
				if ptr {
					typ = star.X
				}
				switch x := typ.(type) {
				case *ast.IndexExpr:
					typ = x.X
				case *ast.IndexListExpr:
					typ = x.X
				}
				recv := typ.(*ast.Ident).Name
				if ptr {
					f.name = "(*" + recv + ")." + fd.Name.Name
				} else {
					f.name = recv + "." + fd.Name.Name
					f.wrapper = "(*" + recv + ")." + fd.Name.Name
				}
			}
			funcs = append(funcs, f)
		}
	}
	return funcs
}

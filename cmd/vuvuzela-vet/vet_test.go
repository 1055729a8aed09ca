package main

import (
	"io"
	"testing"

	"vuvuzela/internal/vet/analyzers/consttime"
	"vuvuzela/internal/vet/analyzers/cryptorand"
	"vuvuzela/internal/vet/analyzers/doccov"
	"vuvuzela/internal/vet/analyzers/errclass"
	"vuvuzela/internal/vet/analyzers/plaintexttransport"
	"vuvuzela/internal/vet/vettest"
)

// The fixtures are one module named vuvuzela, loaded by the driver's
// own loader. Packages under vuvuzela/internal impersonate real module
// packages so the analyzers' path-scoping is exercised exactly as in
// production; those under vuvuzela/outside match no analyzer's scope.
const src = "testdata/src/vuvuzela"

func TestPlaintextTransport(t *testing.T) {
	vettest.Run(t, plaintexttransport.Analyzer, src, "vuvuzela/outside/ptt/bad")
	vettest.Run(t, plaintexttransport.Analyzer, src, "vuvuzela/outside/ptt/allowed")
	vettest.Run(t, plaintexttransport.Analyzer, src, "vuvuzela/internal/transport")
	vettest.Run(t, plaintexttransport.Analyzer, src, "vuvuzela/internal/sim")
}

func TestCryptorand(t *testing.T) {
	vettest.Run(t, cryptorand.Analyzer, src, "vuvuzela/internal/noise")
	vettest.Run(t, cryptorand.Analyzer, src, "vuvuzela/internal/shuffle")
	vettest.Run(t, cryptorand.Analyzer, src, "vuvuzela/outside/cr/outside")
}

func TestConsttime(t *testing.T) {
	vettest.Run(t, consttime.Analyzer, src, "vuvuzela/internal/crypto/ct")
	vettest.Run(t, consttime.Analyzer, src, "vuvuzela/internal/wire")
	vettest.Run(t, consttime.Analyzer, src, "vuvuzela/outside/ct/outside")
}

func TestErrclass(t *testing.T) {
	vettest.Run(t, errclass.Analyzer, src, "vuvuzela/internal/mixnet")
	vettest.Run(t, errclass.Analyzer, src, "vuvuzela/internal/coordinator")
	vettest.Run(t, errclass.Analyzer, src, "vuvuzela/outside/ec/outside")
}

func TestDoccov(t *testing.T) {
	vettest.Run(t, doccov.Analyzer, src, "vuvuzela/outside/dc/bad")
	vettest.Run(t, doccov.Analyzer, src, "vuvuzela/outside/dc/allowed")
}

// TestLiveTreeClean is the acceptance gate in miniature: the
// multichecker over the real module must exit 0 — every real finding
// fixed or carrying a justified allowlist entry, and no allowlist
// entry unused. The vuvuzela/... pattern resolves from this package's
// directory to the whole module.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("drives go list -export over the whole module")
	}
	if code := run([]string{"vuvuzela/..."}, io.Discard, io.Discard); code != 0 {
		// Re-run with output visible for the failure report.
		out := &testWriter{t}
		run([]string{"vuvuzela/..."}, out, out)
		t.Fatalf("vuvuzela-vet over the live tree exited %d, want 0", code)
	}
}

// testWriter funnels driver output into the test log.
type testWriter struct{ t *testing.T }

// Write implements io.Writer.
func (w *testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

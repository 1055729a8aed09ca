//go:build !race

// Steady-state allocation assertions for the secure record layer. The
// race detector instruments allocations, so these run only in normal
// builds; `go test -race` skips the file while the functional tests
// still cover the same paths.
package transport

import (
	"io"
	"net"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// TestSecureRecordAllocs locks the zero-copy property of the record
// layer: once the per-connection buffers are warm, pumping a record from
// Write through the peer's Read allocates nothing. testing.AllocsPerRun
// counts mallocs process-wide, so the reader goroutine's side of each
// record is inside the measurement.
func TestSecureRecordAllocs(t *testing.T) {
	t.Run(recordCipher, func(t *testing.T) {
		cPub, cPriv := box.KeyPairFromSeed([]byte("secure-client"))
		sPub, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
		cc, sc := net.Pipe()
		t.Cleanup(func() { cc.Close(); sc.Close() })
		client := SecureClient(cc, cPriv, sPub)
		server := SecureServer(sc, sPriv, []box.PublicKey{cPub})

		payload := make([]byte, 4096)
		sink := make([]byte, len(payload))
		delivered := make(chan struct{})
		go func() {
			for {
				if _, err := io.ReadFull(server, sink); err != nil {
					close(delivered)
					return
				}
				delivered <- struct{}{}
			}
		}()
		pump := func() {
			if _, err := client.Write(payload); err != nil {
				panic(err)
			}
			<-delivered
		}
		// Warm up: handshake, buffer growth.
		for i := 0; i < 3; i++ {
			pump()
		}
		if avg := testing.AllocsPerRun(100, pump); avg != 0 {
			t.Fatalf("steady-state record write+read allocates %.1f objects/record, want 0", avg)
		}
	})
}

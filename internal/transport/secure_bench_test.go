package transport

import (
	"fmt"
	"io"
	"net"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// BenchmarkSecureRecord is the steady-state throughput of the record layer
// alone, per AEAD suite and record size: one Write is one record, and
// net.Pipe is synchronous, so each iteration times seal + framing + the
// peer's open of the same bytes on a warm connection. It is the figure
// behind ROADMAP's "AES-GCM on the inter-server legs" item (the in-repo
// XSalsa20-Poly1305 against AES-256-GCM); the deployed suite's rate inside
// a full round is bench/'s transport.secure_mb_s, and the 0 allocs/record
// this reports is pinned by TestSecureRecordAllocs.
func BenchmarkSecureRecord(b *testing.B) {
	cPub, cPriv := box.KeyPairFromSeed([]byte("bench-client"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("bench-server"))
	for _, suite := range []box.Suite{box.NaClSuite{}, box.GCMSuite{}} {
		for _, recSize := range []int{64 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", suite.Name(), recSize>>10), func(b *testing.B) {
				cc, sc := net.Pipe()
				defer cc.Close()
				defer sc.Close()
				opts := []SecureOption{WithSuite(suite), WithRecordSize(recSize)}
				client := SecureClient(cc, cPriv, sPub, opts...)
				server := SecureServer(sc, sPriv, []box.PublicKey{cPub}, opts...)
				go io.Copy(io.Discard, server)

				rec := make([]byte, recSize)
				// Warm up: handshake, buffer growth, suite key setup.
				for i := 0; i < 3; i++ {
					if _, err := client.Write(rec); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(recSize))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := client.Write(rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

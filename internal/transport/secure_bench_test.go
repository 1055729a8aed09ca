package transport

import (
	"fmt"
	"io"
	"net"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/crypto/salsa"
)

// BenchmarkSecureRecord is the steady-state throughput of the record layer
// alone, per record size: one Write is one record, and net.Pipe is
// synchronous, so each iteration times seal + framing + the peer's open of
// the same bytes on a warm connection. The rate inside a full round is
// bench/'s transport.secure_mb_s, and the 0 allocs/record this reports is
// pinned by TestSecureRecordAllocs. It runs as "avx512", on salsa's
// kernel where the CPU has it, and as "scalar", on its block loop, forced.
func BenchmarkSecureRecord(b *testing.B) {
	if salsa.AVX512 {
		b.Run("avx512", benchSecureRecord)
	}
	b.Run("scalar", func(b *testing.B) {
		saved := salsa.AVX512
		defer func() { salsa.AVX512 = saved }()
		salsa.AVX512 = false
		benchSecureRecord(b)
	})
}

func benchSecureRecord(b *testing.B) {
	cPub, cPriv := box.KeyPairFromSeed([]byte("bench-client"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("bench-server"))
	for _, recSize := range []int{64 << 10, recordPlain} {
		b.Run(fmt.Sprintf("%dKiB", recSize>>10), func(b *testing.B) {
			cc, sc := net.Pipe()
			defer cc.Close()
			defer sc.Close()
			client := SecureClient(cc, cPriv, sPub)
			server := SecureServer(sc, sPriv, []box.PublicKey{cPub})
			go io.Copy(io.Discard, server)

			rec := make([]byte, recSize)
			// Warm up: handshake, buffer growth.
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

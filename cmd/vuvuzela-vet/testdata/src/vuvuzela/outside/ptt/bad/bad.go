// Package bad is the plaintexttransport positive fixture: a package
// outside the exempt trees that mints plaintext network paths every way
// the analyzer must catch, plus the shapes it must leave alone.
package bad

import (
	"context"
	"net"
	"time"

	"vuvuzela/internal/transport"
)

// Config carries a substrate; referencing the interface type is fine.
type Config struct {
	// Net is the substrate.
	Net transport.Network
}

// Offenders exercises every flagged construction form.
func Offenders(ctx context.Context) {
	_, _ = net.Dial("tcp", "example.com:80")         // want `net.Dial constructs a plaintext network path`
	_, _ = net.Listen("tcp", ":0")                   // want `net.Listen constructs a plaintext network path`
	_, _ = net.DialTimeout("tcp", ":0", time.Second) // want `net.DialTimeout constructs a plaintext network path`
	_, _ = net.ListenPacket("udp", ":0")             // want `net.ListenPacket constructs a plaintext network path`
	var d net.Dialer
	_, _ = d.DialContext(ctx, "tcp", ":0") // want `net.DialContext constructs a plaintext network path`
	cfg := Config{Net: transport.TCP{}}    // want `transport.TCP is the plaintext substrate`
	_ = cfg
	var raw transport.TCP // want `transport.TCP is the plaintext substrate`
	_ = raw
}

// Fine exercises the shapes that must not be flagged: the in-process
// pipe, the Network interface methods, and net types that are not
// constructors.
func Fine(cfg Config) (net.Conn, error) {
	c1, c2 := net.Pipe()
	_ = c2
	var l net.Listener
	_ = l
	if _, err := cfg.Net.Dial("peer"); err != nil {
		return nil, err
	}
	if _, err := cfg.Net.Listen("peer"); err != nil {
		return nil, err
	}
	return c1, nil
}

package cdn

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"vuvuzela/internal/dial"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

func buckets(round uint64, blobs ...[]byte) *dial.Buckets {
	return &dial.Buckets{Round: round, M: uint32(len(blobs)), Data: blobs}
}

func TestPublishAndFetchLocal(t *testing.T) {
	s := NewStore(0)
	s.Publish(buckets(1, []byte("bucket-0"), []byte("bucket-1")))

	if blob, ok := s.Bucket(1, 0); !ok || string(blob) != "bucket-0" {
		t.Fatalf("bucket(1,0) = %q %v", blob, ok)
	}
	if blob, ok := s.Bucket(1, 1); !ok || string(blob) != "bucket-1" {
		t.Fatalf("bucket(1,1) = %q %v", blob, ok)
	}
	if _, ok := s.Bucket(1, 2); ok {
		t.Fatal("out-of-range bucket found")
	}
	if _, ok := s.Bucket(2, 0); ok {
		t.Fatal("unknown round found")
	}
	if b, ok := s.Buckets(1); !ok || b.M != 2 {
		t.Fatal("full bucket set lookup failed")
	}
}

func TestRetention(t *testing.T) {
	s := NewStore(2)
	for r := uint64(1); r <= 5; r++ {
		s.Publish(buckets(r, []byte{byte(r)}))
	}
	for r := uint64(1); r <= 3; r++ {
		if _, ok := s.Bucket(r, 0); ok {
			t.Fatalf("round %d not evicted", r)
		}
	}
	for r := uint64(4); r <= 5; r++ {
		if _, ok := s.Bucket(r, 0); !ok {
			t.Fatalf("round %d missing", r)
		}
	}
}

func TestRepublishSameRound(t *testing.T) {
	s := NewStore(2)
	s.Publish(buckets(1, []byte("a")))
	s.Publish(buckets(1, []byte("b")))
	if blob, ok := s.Bucket(1, 0); !ok || string(blob) != "b" {
		t.Fatalf("got %q %v", blob, ok)
	}
}

func TestServeFetch(t *testing.T) {
	net := transport.NewMem()
	s := NewStore(0)
	blob := bytes.Repeat([]byte{0xcd}, 800)
	s.Publish(buckets(3, []byte("zero"), blob))

	l, err := net.Listen("cdn")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mixnet.ServeLoop(l, nil, s.Handle)

	raw, err := net.Dial("cdn")
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()

	got, err := Fetch(conn, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("blob mismatch")
	}
	// Missing buckets come back empty, not as an error.
	got, err = Fetch(conn, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("missing bucket returned %d bytes", len(got))
	}
	// Multiple fetches on one connection.
	if got, err = Fetch(conn, 3, 0); err != nil || string(got) != "zero" {
		t.Fatalf("second fetch: %q %v", got, err)
	}
}

// TestServeRefusesOversizedFrame: the CDN listener is public and
// unauthenticated, so the four bytes of a length prefix are all a
// stranger needs to send. A prefix announcing wire.MaxFrameSize — within
// the global cap, so only the listener's own limit refuses it — must get
// the connection closed with nothing allocated for the payload, and a
// valid fetch still works on the same listener.
func TestServeRefusesOversizedFrame(t *testing.T) {
	net := transport.NewMem()
	s := NewStore(0)
	s.Publish(buckets(3, []byte("zero")))
	l, err := net.Listen("cdn")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mixnet.ServeLoop(l, nil, s.Handle)

	raw, err := net.Dial("cdn")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := raw.Write([]byte{0x40, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("listener kept the connection open waiting for a 1 GiB frame (read: %v)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a 4-byte header made the listener allocate %d MiB", grew>>20)
	}

	raw2, err := net.Dial("cdn")
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw2)
	defer conn.Close()
	if got, err := Fetch(conn, 3, 0); err != nil || string(got) != "zero" {
		t.Fatalf("fetch after the refused frame: %q %v", got, err)
	}
}

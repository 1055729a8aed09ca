// Package transport abstracts the byte-stream substrate the Vuvuzela
// processes run on: real TCP for deployments (paper §8.1 runs each server
// on its own VM) and an in-memory network for tests, examples, and the
// scaled-down evaluation harness — both behind one interface so every
// layer above is identical in either mode.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Network creates listeners and dials peers by address.
type Network interface {
	// Listen binds addr and accepts inbound byte streams.
	Listen(addr string) (net.Listener, error)
	// Dial opens a byte stream to the peer listening on addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the production network: plain TCP.
type TCP struct{}

// Listen implements Network.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Network.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// The redial backoff (docs/WIRE.md §2.2; see Redial).
const (
	redialMin = 2 * time.Millisecond
	redialMax = 250 * time.Millisecond
)

// Redial keeps one long-lived connection to addr up until stop closes,
// for the dials that are not a mixnet.Peer leg: a client's to its entry,
// a frontend's pipe to the coordinator. It hands each connection to serve
// — conn first, unless nil — and dials again once serve returns: at once
// if serve reports that the connection carried a message, otherwise (a
// failed dial or handshake, a peer that accepts and closes at once) after
// twice the last wait, from redialMin up to redialMax. A dial in progress
// when stop closes still completes, so serve must check for itself that
// its owner is closed.
func Redial(nw Network, addr string, conn net.Conn, stop <-chan struct{}, serve func(net.Conn) (heard bool)) {
	var wait time.Duration
	for {
		wait = min(max(2*wait, redialMin), redialMax)
		if conn != nil && serve(conn) {
			wait = 0
		}
		select {
		case <-stop:
			return
		default:
		}
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		conn, _ = nw.Dial(addr)
	}
}

// Mem is an in-process network: addresses are arbitrary names, and
// connections are synchronous net.Pipe pairs.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMem returns an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// Listen implements Network.
func (m *Mem) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &memListener{
		net:    m,
		addr:   addr,
		accept: make(chan net.Conn),
		closed: make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (m *Mem) Dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: connection refused: %q", addr)
	}
	client, server := net.Pipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("transport: connection refused: %q", addr)
	}
}

type memListener struct {
	net       *Mem
	addr      string
	accept    chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, errors.New("transport: listener closed")
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

func TestMemListenDial(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("server-1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := c.Read(buf); err != nil {
			t.Error(err)
			return
		}
		c.Write(bytes.ToUpper(buf))
	}()

	c, err := m.Dial("server-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("got %q", buf)
	}
	wg.Wait()
}

func TestMemDialUnknownAddr(t *testing.T) {
	m := NewMem()
	if _, err := m.Dial("nowhere"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestMemDuplicateListen(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("a"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	// After closing, the address is free again.
	l2, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
}

func TestMemClosedListener(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Accept(); err == nil {
		t.Fatal("accept on closed listener succeeded")
	}
	if _, err := m.Dial("a"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	// Double close is fine.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemAddr(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("chain-2")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr().String() != "chain-2" || l.Addr().Network() != "mem" {
		t.Fatalf("addr %v/%v", l.Addr().Network(), l.Addr().String())
	}
}

func TestMemConcurrentDials(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				c.Read(buf)
				c.Write(buf)
			}(c)
		}
	}()

	var cwg sync.WaitGroup
	for i := 0; i < n; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			c, err := m.Dial("hub")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.Write([]byte{byte(i)})
			buf := make([]byte, 1)
			c.Read(buf)
			if buf[0] != byte(i) {
				t.Errorf("echo mismatch: %d != %d", buf[0], i)
			}
		}(i)
	}
	cwg.Wait()
	wg.Wait()
}

// TestTCPLoopback exercises the TCP network on the loopback interface.
func TestTCPLoopback(t *testing.T) {
	var tcp TCP
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()

	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		c.Read(buf)
		c.Write(buf)
	}()

	c, err := tcp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("got %q", buf)
	}
}

// TestRedialBackoff: Redial serves the connection it is handed first and
// dials again at once after a connection that carried a message; the k-th
// connection in a row that carried nothing is followed by a wait of at
// least redialMin·2^(k−1), capped at redialMax, so a peer that accepts
// and closes at once costs no busy loop; one that carries a message
// resets the backoff; and a closed stop ends a wait between failed dials.
func TestRedialBackoff(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	type call struct {
		at    time.Time
		heard chan bool
	}
	calls := make(chan call)
	stop, returned := make(chan struct{}), make(chan struct{})
	first, _ := net.Pipe()
	go func() {
		defer close(returned)
		Redial(m, "peer", first, stop, func(c net.Conn) bool {
			defer c.Close()
			cl := call{time.Now(), make(chan bool)}
			calls <- cl
			return <-cl.heard
		})
	}()
	// end has the connection served by cl return heard, and returns the
	// gap before the next connection is served.
	end := func(cl *call, heard bool) time.Duration {
		t.Helper()
		at := time.Now()
		cl.heard <- heard
		select {
		case *cl = <-calls:
			return cl.at.Sub(at)
		case <-time.After(2 * time.Second):
			t.Fatal("Redial did not redial")
			return 0
		}
	}

	cl := <-calls // first, served without a dial
	if gap := end(&cl, true); gap >= redialMax {
		t.Fatalf("redial after a connection that carried a message came after %v", gap)
	}
	for k := 1; k <= 10; k++ {
		gap, want := end(&cl, false), min(redialMin<<(k-1), redialMax)
		if gap < want {
			t.Fatalf("redial %d after a connection that carried nothing came after %v, want at least %v", k, gap, want)
		}
		// Uncapped, the tenth wait would be 1024 ms.
		if k == 10 && gap >= 4*redialMax {
			t.Fatalf("redial %d came after %v: the backoff is not capped at %v", k, gap, redialMax)
		}
	}
	if gap := end(&cl, true); gap >= redialMax {
		t.Fatalf("redial after a connection that carried a message came after %v: the backoff was not reset", gap)
	}

	// The peer goes down for good: every dial fails until stop closes.
	l.Close()
	cl.heard <- false
	time.Sleep(100 * time.Millisecond)
	close(stop)
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("Redial did not return after stop closed")
	}
	select {
	case <-calls:
		t.Fatal("Redial served a connection after the peer went down")
	default:
	}
}

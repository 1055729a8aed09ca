package main

import (
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"vuvuzela/internal/transport"
)

// The traced run observes the deployment from outside, as a network
// observer would: a transport.Network wrapper timestamps every Write and
// Read on every leg and direction, and nothing is recorded inside the
// program under test. Every leg is strict request→reply and the load is
// closed-loop with one round in flight, so a frame is a maximal run of
// writes in one direction; it starts when its sender begins the first
// Write and is in when its receiver's last Read returns, and the time
// from a frame being in on one leg to the next frame starting on the
// adjacent leg is the hop between them (the same goroutine does both, so
// hops never come out negative, however the sender is scheduled).

// writeEvent is one Write call on a leg, stamped when the sender made it.
type writeEvent struct {
	// start is nanoseconds since the traced network's epoch.
	start int64
	n     int
}

// flow is one direction of one connection.
type flow struct {
	// writes are the sender's Write calls, in time order.
	writes []writeEvent
	// reads are the times the receiver's Read calls returned bytes, in
	// time order.
	reads []int64
}

// lastRead returns the last time the receiver got bytes in [from, until],
// or from if it got none.
func (f *flow) lastRead(from, until int64) int64 {
	i := sort.Search(len(f.reads), func(i int) bool { return f.reads[i] > until })
	if i == 0 || f.reads[i-1] < from {
		return from
	}
	return f.reads[i-1]
}

// within returns the writes that start inside win.
func (f *flow) within(win window) []writeEvent {
	lo := sort.Search(len(f.writes), func(i int) bool { return f.writes[i].start >= win.start })
	hi := sort.Search(len(f.writes), func(i int) bool { return f.writes[i].start > win.end })
	return f.writes[lo:hi]
}

// legConn is one connection of a leg: a leg is named after the address
// dialled ("server-1" is the hop server 0 → server 1) and its
// connections are numbered in dial order.
type legConn struct {
	mu sync.Mutex
	// up flows from the dialler to the listener, down the other way.
	up, down flow
	// cut caches frames() once the connection has gone quiet.
	cut []frame
}

// tracedNet wraps a transport.Network and records every connection's
// traffic. It is built per cycle and read only after the deployment on
// it has been closed.
type tracedNet struct {
	inner transport.Network
	epoch time.Time

	mu sync.Mutex
	// legs[addr][k] is the k-th connection dialled to addr.
	legs map[string][]*legConn
	// dialled and accepted number each side's view of a leg's
	// connections; dialMu serializes dials per address so that both
	// sides count the same connection at the same index.
	dialled, accepted map[string]int
	dialMu            map[string]*sync.Mutex
}

func newTracedNet(inner transport.Network) *tracedNet {
	return &tracedNet{
		inner: inner, epoch: time.Now(),
		legs:    make(map[string][]*legConn),
		dialled: make(map[string]int), accepted: make(map[string]int),
		dialMu: make(map[string]*sync.Mutex),
	}
}

// now is nanoseconds since the epoch, on the monotonic clock.
func (t *tracedNet) now() int64 { return int64(time.Since(t.epoch)) }

// leg returns connection k of addr's leg, creating it (and any lower
// index the other side has not reached yet).
func (t *tracedNet) leg(addr string, k int) *legConn {
	for len(t.legs[addr]) <= k {
		t.legs[addr] = append(t.legs[addr], &legConn{})
	}
	return t.legs[addr][k]
}

// Dial implements transport.Network.
func (t *tracedNet) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	mu := t.dialMu[addr]
	if mu == nil {
		mu = new(sync.Mutex)
		t.dialMu[addr] = mu
	}
	t.mu.Unlock()

	// transport.Mem hands the connection to the listener's single accept
	// loop before Dial returns, so with dials to one address serialized
	// the k-th dial and the k-th accept are the same pipe.
	mu.Lock()
	defer mu.Unlock()
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	l := t.leg(addr, t.dialled[addr])
	t.dialled[addr]++
	t.mu.Unlock()
	return &tracedConn{Conn: c, net: t, leg: l, out: &l.up, in: &l.down}, nil
}

// Listen implements transport.Network.
func (t *tracedNet) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, net: t, addr: addr}, nil
}

type tracedListener struct {
	net.Listener
	net  *tracedNet
	addr string
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t := l.net
	t.mu.Lock()
	leg := t.leg(l.addr, t.accepted[l.addr])
	t.accepted[l.addr]++
	t.mu.Unlock()
	return &tracedConn{Conn: c, net: t, leg: leg, out: &leg.down, in: &leg.up}, nil
}

// tracedConn is one side of a connection: it stamps its Writes into the
// flow it sends and its Reads into the flow it receives.
type tracedConn struct {
	net.Conn
	net     *tracedNet
	leg     *legConn
	out, in *flow
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.net.now()
	c.leg.mu.Lock()
	c.out.writes = append(c.out.writes, writeEvent{start: start, n: len(p)})
	c.leg.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		at := c.net.now()
		c.leg.mu.Lock()
		c.in.reads = append(c.in.reads, at)
		c.leg.mu.Unlock()
	}
	return n, err
}

// frame is a maximal run of writes in one direction on one connection.
type frame struct {
	up bool
	// first is when the sender began the first write, last when the
	// receiver's last read of it returned.
	first, last int64
}

// frames cuts a connection's traffic into frames. It is called only
// after the deployment has been closed, so the result is cached.
func (l *legConn) frames() []frame {
	if l.cut != nil {
		return l.cut
	}
	var out []frame
	up, down := l.up.writes, l.down.writes
	for len(up) > 0 || len(down) > 0 {
		isUp := len(down) == 0 || (len(up) > 0 && up[0].start < down[0].start)
		next := &down
		if isUp {
			next = &up
		}
		if n := len(out); n == 0 || out[n-1].up != isUp {
			out = append(out, frame{up: isUp, first: (*next)[0].start})
		}
		*next = (*next)[1:]
	}
	for i := range out {
		until := int64(1<<63 - 1)
		if i+1 < len(out) {
			until = out[i+1].first
		}
		f := &l.down
		if out[i].up {
			f = &l.up
		}
		out[i].last = f.lastRead(out[i].first, until)
	}
	l.cut = out
	return out
}

// exchange finds the request frame that starts inside [t0, t1] and the
// reply frame that follows it.
func exchange(frames []frame, t0, t1 int64) (req, rep frame, ok bool) {
	for i, f := range frames {
		if f.up && f.first >= t0 && f.first <= t1 && i+1 < len(frames) {
			return f, frames[i+1], true
		}
	}
	return frame{}, frame{}, false
}

// span is one traced interval. Spans of one round share (cycle, round);
// a span's self time is its duration minus its children's.
type span struct {
	Name string `json:"name"`
	// Leg is the connection the span was cut from, when it belongs to
	// one ("entry-front#1"); empty otherwise.
	Leg string `json:"leg,omitempty"`
	// Start and End are microseconds since the cycle's traced network
	// was created.
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent string  `json:"parent,omitempty"`
	Round  uint64  `json:"round"`
	Cycle  int     `json:"cycle"`
	// Dial marks a round during which a dialing round was in flight. Its
	// spans are written out but kept out of the per-layer figures, which
	// describe an undisturbed round; what dialing costs shows in
	// msgs_per_s and dial.round_ms.
	Dial bool `json:"dial_overlap,omitempty"`
}

// window is one driver-timed interval on a traced network's clock.
type window struct{ start, end int64 }

func (a window) overlaps(b window) bool { return a.start <= b.end && b.start <= a.end }

// legXfer names the spans covering a chain-leg frame from its first byte
// out to its last byte in.
const legXfer = "transport.leg_xfer"

// topLevel names the spans that tile a round end to end; their figures
// must add up to the round's median latency (trace.sum_ratio).
var topLevel = []string{
	"coordinator.collect", "mixnet.hop0.fwd", "mixnet.hop1.fwd", "mixnet.last.exchange",
	"mixnet.hop1.back", "mixnet.hop0.back", "coordinator.fanout", legXfer,
}

// roundSpans cuts one round's spans out of the traced network. win is
// the driver's call→verified window; shared says a dialing round was in
// flight during it, in which case the legs both protocols share (client
// legs, frontend pipes) cannot be attributed and only the chain is cut.
func (t *tracedNet) roundSpans(cycle int, round uint64, win window, shared bool) []span {
	var out []span
	add := func(name, leg, parent string, from, to int64) {
		out = append(out, span{
			Name: name, Leg: leg, Parent: parent, Round: round, Cycle: cycle, Dial: shared,
			Start: float64(from) / 1e3, End: float64(to) / 1e3,
		})
	}

	// The chain: connection 0 of every server leg carries conversation
	// rounds (the warm-up rounds dial it before any dialing round runs).
	var req, rep [chainServers]frame
	for i := 0; i < chainServers; i++ {
		conns := t.legs[serverAddr(i)]
		if len(conns) == 0 {
			return nil
		}
		var ok bool
		if req[i], rep[i], ok = exchange(conns[0].frames(), win.start, win.end); !ok {
			return nil
		}
		add(legXfer, serverAddr(i)+"#0", "", req[i].first, req[i].last)
		add(legXfer, serverAddr(i)+"#0", "", rep[i].first, rep[i].last)
	}
	add("coordinator.collect", "", "", win.start, req[0].first)
	add("mixnet.hop0.fwd", "", "", req[0].last, req[1].first)
	add("mixnet.hop1.fwd", "", "", req[1].last, req[2].first)
	add("mixnet.last.exchange", "", "", req[2].last, rep[2].first)
	add("mixnet.hop1.back", "", "", rep[2].last, rep[1].first)
	add("mixnet.hop0.back", "", "", rep[1].last, rep[0].first)
	add("coordinator.fanout", "", "", rep[0].last, win.end)

	// The shard fan-out runs inside the last server's exchange.
	first, last := int64(-1), int64(-1)
	for i := 0; ; i++ {
		conns := t.legs[shardAddr(i)]
		if len(conns) == 0 {
			break
		}
		if q, p, ok := exchange(conns[0].frames(), req[2].last, rep[2].first); ok {
			if first < 0 || q.first < first {
				first = q.first
			}
			last = max(last, p.last)
		}
	}
	if first >= 0 {
		add("mixnet.shard.rpc", "", "mixnet.last.exchange", first, last)
	}
	if shared {
		return out
	}

	// The entry's write-ahead commit is the only work between the call
	// and the first announcement byte, on whichever leg carries it.
	announced := int64(-1)
	for _, addr := range []string{entryAddr, frontPipeAddr} {
		for _, c := range t.legs[addr] {
			if downs := c.down.within(win); len(downs) > 0 && (announced < 0 || downs[0].start < announced) {
				announced = downs[0].start
			}
		}
	}
	if announced >= 0 {
		add("roundstate.commit", "", "coordinator.collect", win.start, announced)
	}

	// A frontend pipe carries announce (down), batch (up), replies (down)
	// per round; the replies run straight into the next announcement, so
	// the pipe is cut by the round's window, not by direction changes.
	for k, c := range t.legs[frontPipeAddr] {
		leg := frontPipeAddr + "#" + strconv.Itoa(k)
		ups, downs := c.up.within(win), c.down.within(win)
		if len(ups) == 0 {
			continue
		}
		batch := ups[0].start
		split := sort.Search(len(downs), func(i int) bool { return downs[i].start >= batch })
		if split == 0 || split == len(downs) {
			continue
		}
		ann, replies := downs[0].start, downs[split].start
		annIn := c.down.lastRead(ann, batch)
		add("frontend.collect", leg, "coordinator.collect", annIn, batch)
		add("frontend.pipe", leg, "coordinator.collect", ann, annIn)
		add("frontend.pipe", leg, "coordinator.collect", batch, c.up.lastRead(batch, replies))
		add("frontend.pipe", leg, "coordinator.fanout", replies, c.down.lastRead(replies, win.end))
	}
	return out
}

// traffic totals the bytes and Write calls of every leg inside win.
func (t *tracedNet) traffic(win window) (bytes, writes int) {
	for _, conns := range t.legs {
		for _, c := range conns {
			for _, f := range []*flow{&c.up, &c.down} {
				for _, e := range f.within(win) {
					bytes += e.n
					writes++
				}
			}
		}
	}
	return bytes, writes
}

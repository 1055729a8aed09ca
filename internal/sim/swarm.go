package sim

import (
	"sync"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/wire"
)

// SwarmClient describes one client of a Swarm. The zero value is an
// idle cover client, which is all most fault suites need.
type SwarmClient struct {
	// Pub is the client's long-term key, the sender a conversing
	// client's messages are sealed as.
	Pub box.PublicKey
	// Secret is the conversation's dead-drop secret; nil makes the client
	// idle: every round it sends the fake request an idle production
	// client sends.
	Secret *[32]byte
	// Msg is the payload a conversing client sends each round.
	Msg []byte
}

// Swarm is the harness's one simulated client population. Each client
// answers every announcement it receives, conversation and dialing
// alike, with a request indistinguishable on the wire from any other
// client's, and redials its entry address whenever its connection drops
// — which keeps the population stable through kills, restarts and
// kicks.
type Swarm struct {
	cn      *ChainNet
	onReply func(client int, round uint64)
	clients []*swarmClient

	closing   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// swarmClient is one running client: its description, where it dials,
// and its current connection.
type swarmClient struct {
	SwarmClient
	addr string

	mu   sync.Mutex
	conn *wire.Conn
}

// NewSwarm starts one goroutine per client, client i dialing
// ClientAddrs()[i mod len] — round-robin over the frontends live now, or
// the coordinator — and redialing that same address for as long as the
// swarm runs. onReply, if not nil, is called from the client's goroutine
// for every conversation reply client i receives. Clients are not
// registered when NewSwarm returns: see WaitReady.
func (cn *ChainNet) NewSwarm(clients []SwarmClient, onReply func(client int, round uint64)) *Swarm {
	sw := &Swarm{
		cn:      cn,
		onReply: onReply,
		closing: make(chan struct{}),
	}
	addrs := cn.ClientAddrs()
	for i, c := range clients {
		sw.clients = append(sw.clients, &swarmClient{SwarmClient: c, addr: addrs[i%len(addrs)]})
	}
	for i := range sw.clients {
		sw.wg.Add(1)
		go sw.loop(i)
	}
	return sw
}

// Close tears every client down and waits for the goroutines to exit;
// calling it again is harmless.
func (sw *Swarm) Close() {
	sw.closeOnce.Do(func() { close(sw.closing) })
	for i := range sw.clients {
		sw.Kick(i)
	}
	sw.wg.Wait()
}

// Kick severs client i's current connection; the client redials on its
// own, so repeated kicks model leave/rejoin churn at constant
// population.
func (sw *Swarm) Kick(i int) {
	c := sw.clients[i]
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// closed reports whether Close has been called.
func (sw *Swarm) closed() bool {
	select {
	case <-sw.closing:
		return true
	default:
		return false
	}
}

// loop is client i's lifetime: dial, answer announcements, redial on any
// error until the swarm closes.
func (sw *Swarm) loop(i int) {
	defer sw.wg.Done()
	c := sw.clients[i]
	for !sw.closed() {
		raw, err := sw.cn.cfg.Net.Dial(c.addr)
		if err != nil {
			select {
			case <-sw.closing:
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		conn := wire.NewConn(raw)
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
		// Close closes the channel and then kicks: a Close that ran before
		// the store above missed this connection, and is seen here.
		if sw.closed() {
			conn.Close()
			return
		}
		sw.serve(i, conn)
		conn.Close()
	}
}

// serve answers announcements on one connection until it fails.
func (sw *Swarm) serve(i int, conn *wire.Conn) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		switch msg.Kind {
		case wire.KindAnnounce:
			body, err := sw.request(sw.clients[i], msg)
			if err != nil {
				return
			}
			if err := conn.Send(&wire.Message{
				Kind: wire.KindSubmit, Proto: msg.Proto, Round: msg.Round, Body: [][]byte{body},
			}); err != nil {
				return
			}
		case wire.KindReply:
			if msg.Proto == wire.ProtoConvo && sw.onReply != nil {
				sw.onReply(i, msg.Round)
			}
		}
	}
}

// request builds the onion answering one announcement: a real or fake
// conversation request, or an idle dialing request — all fixed-size
// and indistinguishable on the wire.
func (sw *Swarm) request(c *swarmClient, msg *wire.Message) ([]byte, error) {
	var payload []byte
	switch msg.Proto {
	case wire.ProtoConvo:
		req, err := convo.BuildRequest(c.Secret, msg.Round, &c.Pub, c.Msg)
		if err != nil {
			return nil, err
		}
		payload = req.Marshal()
	case wire.ProtoDial:
		req, err := dial.BuildRequest(&c.Pub, nil, msg.M, nil)
		if err != nil {
			return nil, err
		}
		payload = req.Marshal()
	default:
		return nil, wire.ErrFrontFrame
	}
	o, _, err := onion.Wrap(payload, msg.Round, 0, sw.cn.Pubs, nil)
	return o, err
}

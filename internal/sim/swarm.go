package sim

import (
	"net"
	"sync"

	"vuvuzela/internal/client"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/transport"
)

// SwarmClient describes one client of a Swarm. The zero value is an
// idle cover client, which is all most fault suites need.
type SwarmClient struct {
	// Pub is the client's long-term public key.
	Pub box.PublicKey
	// Priv is the private half of Pub.
	Priv box.PrivateKey
	// Peer, if not nil, is the key of the client this one converses
	// with from the start; nil leaves it idle, sending an idle client's
	// fake requests every round.
	Peer *box.PublicKey
}

// Swarm is the harness's client population: every member is a real
// client.Client, so each answers every announcement, conversation and
// dialing alike, with the production client's requests, and redials its
// entry address whenever its connection drops — which keeps the
// population stable through kills, restarts and kicks.
type Swarm struct {
	members []*member
	wg      sync.WaitGroup // the onReply goroutines
}

// member is one running client and the network it dials through, which
// remembers the client's latest connection so Kick can sever it.
type member struct {
	transport.Network
	c *client.Client

	mu   sync.Mutex
	conn net.Conn
}

// Dial dials through the swarm's network and keeps the connection for
// Kick.
func (m *member) Dial(addr string) (net.Conn, error) {
	conn, err := m.Network.Dial(addr)
	if err == nil {
		m.mu.Lock()
		m.conn = conn
		m.mu.Unlock()
	}
	return conn, err
}

// NewSwarm dials one client per description, client i at ClientAddrs()[i
// mod len] — round-robin over the frontends live now, or the coordinator
// — which it redials for as long as the swarm runs. It fails, leaving
// nothing running, if any first dial fails. onReply, if not nil, is
// called for every conversation round client i completes; without it the
// clients' events go undrained, and the client drops them. Clients are
// not registered when NewSwarm returns: see WaitReady.
func (cn *ChainNet) NewSwarm(clients []SwarmClient, onReply func(client int, round uint64)) (*Swarm, error) {
	sw := &Swarm{}
	addrs := cn.ClientAddrs()
	for i, sc := range clients {
		m := &member{Network: cn.cfg.Net}
		c, err := client.Dial(client.Config{
			Pub: sc.Pub, Priv: sc.Priv,
			ChainPubs: cn.Pubs,
			Net:       m,
			EntryAddr: addrs[i%len(addrs)],
		})
		if err != nil {
			sw.Close()
			return nil, err
		}
		m.c = c
		sw.members = append(sw.members, m)
		if sc.Peer != nil {
			if err := c.StartConversation(*sc.Peer); err != nil {
				sw.Close()
				return nil, err
			}
		}
		if onReply != nil {
			sw.wg.Add(1)
			go func() {
				defer sw.wg.Done()
				for e := range c.Events() {
					if r, ok := e.(client.ConvoRoundEvent); ok {
						onReply(i, r.Round)
					}
				}
			}()
		}
	}
	return sw, nil
}

// Close tears every client down and waits for its goroutines to exit;
// calling it again is harmless.
func (sw *Swarm) Close() {
	for _, m := range sw.members {
		m.c.Close()
	}
	sw.wg.Wait()
}

// Kick severs client i's current connection; the client redials on its
// own, so repeated kicks model leave/rejoin churn at constant
// population.
func (sw *Swarm) Kick(i int) {
	m := sw.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn != nil {
		m.conn.Close()
	}
}

// vuvuzela-entry runs the untrusted entry server (paper §7): it maintains
// client connections, announces rounds on timers, batches client requests
// into the chain, and demultiplexes replies. It is wired from chain.json
// by internal/deploy.
//
// Usage:
//
//	vuvuzela-entry -chain deploy/chain.json -convo-interval 10s -dial-interval 1m
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"vuvuzela/internal/config"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

func main() {
	chainPath := flag.String("chain", "chain.json", "chain config file")
	convoEvery := flag.Duration("convo-interval", 10*time.Second, "conversation round interval")
	dialEvery := flag.Duration("dial-interval", time.Minute, "dialing round interval (paper uses 10m in production)")
	submitTimeout := flag.Duration("submit-timeout", 5*time.Second, "how long to wait for client submissions")
	convoWindow := flag.Int("convo-window", 1, "conversation rounds kept in flight at once (pipelined timer mode; 1 = serial)")
	roundState := flag.String("round-state", "", "file durably recording the announced round numbers, so a restarted entry resumes numbering instead of re-issuing rounds a durable chain already consumed (empty = in-memory only; see docs/THREAT_MODEL.md)")
	keyPath := flag.String("key", "", "entry.key file holding the frontend-pipe identity; required when the chain config names an entry_front_addr")
	flag.Parse()

	chain, err := config.LoadChain(*chainPath)
	if err != nil {
		log.Fatal(err)
	}
	var key *config.ServerKey
	if *keyPath != "" {
		if key, err = config.LoadServerKey(*keyPath); err != nil {
			log.Fatal(err)
		}
	}
	//vuvuzela:allow plaintexttransport substrate only: the chain leg and the frontend pipes run inside transport.Secure; clients are untrusted and their requests arrive onion-sealed for the chain
	tcp := transport.TCP{}
	role, err := deploy.Entry(chain, key, tcp, coordinator.Config{
		SubmitTimeout: *submitTimeout,
		ConvoWindow:   *convoWindow,
		OnRoundError: func(proto wire.Proto, round uint64, err error) {
			// Round failures are transient (the next tick retries with a
			// fresh round), but a persistent cause — unreachable chain,
			// dead dead-drop shard — must be visible to the operator.
			name := "convo"
			if proto == wire.ProtoDial {
				name = "dial"
			}
			log.Printf("%s round %d failed: %v", name, round, err)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ls, err := deploy.Listen(tcp, role.Addrs)
	if err != nil {
		log.Fatal(err)
	}
	var store *roundstate.Counters
	if *roundState != "" {
		store, err = roundstate.OpenCounters(*roundState)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("round state in %s (resuming after convo round %d, dial round %d)",
			*roundState, store.Last(roundstate.ConvoCounter), store.Last(roundstate.DialCounter))
	} else {
		log.Printf("WARNING: no -round-state file; restarting this entry against a durable chain re-issues consumed round numbers and wedges")
	}
	co, done, err := role.Boot(store, ls)
	if err != nil {
		log.Fatal(err)
	}
	if len(role.Addrs) > 1 {
		log.Printf("frontend pipes on %s", role.Addrs[1])
	}
	log.Printf("vuvuzela entry server on %s → chain head %s (convo %v, dial %v)",
		role.Addrs[0], chain.Servers[0].Addr, *convoEvery, *dialEvery)

	co.(*coordinator.Coordinator).Start(context.Background(), *convoEvery, *dialEvery)
	log.Fatal(<-done)
}

// vuvuzela-entry runs the untrusted entry server (paper §7): it maintains
// client connections, announces rounds on timers, batches client requests
// into the chain, and demultiplexes replies.
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
	"vuvuzela/internal/crypto/box"
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
	var frontKey box.PrivateKey
	if chain.EntryFrontAddr != "" {
		if *keyPath == "" {
			log.Fatalf("chain config names frontend pipe %s but no -key file was given", chain.EntryFrontAddr)
		}
		k, err := config.LoadServerKey(*keyPath)
		if err != nil {
			log.Fatal(err)
		}
		frontKey = box.PrivateKey(k.PrivateKey)
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
	co, err := coordinator.New(coordinator.Config{
		//vuvuzela:allow plaintexttransport substrate only: the coordinator wraps every chain dial in transport.SecureClient keyed to ChainPub
		Net:           transport.TCP{},
		ChainAddr:     chain.Servers[0].Addr,
		ChainPub:      box.PublicKey(chain.Servers[0].PublicKey),
		DialBuckets:   chain.DialBuckets,
		SubmitTimeout: *submitTimeout,
		ConvoWindow:   *convoWindow,
		RoundState:    store,
		FrontIdentity: frontKey,
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

	l, err := transport.TCP{}.Listen(chain.EntryAddr) //vuvuzela:allow plaintexttransport client-facing listener; clients are untrusted and their requests arrive onion-sealed for the chain
	if err != nil {
		log.Fatal(err)
	}
	if chain.EntryFrontAddr != "" {
		fl, err := transport.TCP{}.Listen(chain.EntryFrontAddr) //vuvuzela:allow plaintexttransport substrate only: ServeFrontends wraps every accepted pipe in transport.Secure keyed to the entry.key identity
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := co.ServeFrontends(fl); err != nil {
				log.Fatal(err)
			}
		}()
		log.Printf("frontend pipes on %s", chain.EntryFrontAddr)
	}
	log.Printf("vuvuzela entry server on %s → chain head %s (convo %v, dial %v)",
		chain.EntryAddr, chain.Servers[0].Addr, *convoEvery, *dialEvery)

	co.Start(context.Background(), *convoEvery, *dialEvery)
	if err := co.Serve(l); err != nil {
		log.Fatal(err)
	}
}

// vuvuzela-server runs one Vuvuzela server process: the chain server or
// dead-drop shard whose public key in chain.json is its key's, wired from
// chain.json by internal/deploy. A key chain.json does not list is
// refused.
//
// A chain server is one link of the mixnet (paper Algorithm 2); the last
// server in the chain additionally hosts the invitation CDN and the
// dead-drop exchange. When the chain config lists shard servers, the
// last server instead fans the exchange out to them by drop-ID prefix,
// and each shard runs as its own process.
//
// Usage:
//
//	vuvuzela-server -chain deploy/chain.json -key deploy/server-0.key
//	vuvuzela-server -chain deploy/chain.json -key deploy/shard-1.key
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"vuvuzela/internal/config"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
)

func main() {
	chainPath := flag.String("chain", "chain.json", "chain config file")
	keyPath := flag.String("key", "", "private key file of a chain server or shard listed in the chain config")
	fixedNoise := flag.Bool("fixed-noise", false, "add exactly µ noise instead of sampling Laplace (evaluation mode, §8.1)")
	workers := flag.Int("workers", 0, "crypto worker goroutines (chain server; 0 = all cores)")
	shardTimeout := flag.Duration("shard-timeout", time.Minute, "per-round RPC timeout to each shard server (last server only; 0 = wait forever)")
	shardPolicy := flag.String("shard-policy", "abort", `"abort" fails the round on any shard failure; "degrade" zero-fills an unreachable shard's replies and completes the round (authentication failures still abort; zero-filled replies are observable round metadata — see README)`)
	roundState := flag.String("round-state", "", `file durably recording the last-committed rounds, so a restarted server rejoins without replaying consumed rounds (chain server or shard; empty = in-memory only; strongly recommended in production — see docs/THREAT_MODEL.md)`)
	flag.Parse()
	if *keyPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	chain, err := config.LoadChain(*chainPath)
	if err != nil {
		log.Fatal(err)
	}
	key, err := config.LoadServerKey(*keyPath)
	if err != nil {
		log.Fatal(err)
	}

	var policy mixnet.ShardPolicy
	switch *shardPolicy {
	case "abort":
		policy = mixnet.ShardAbort
	case "degrade":
		policy = mixnet.ShardDegrade
	default:
		log.Fatalf("unknown -shard-policy %q (want abort or degrade)", *shardPolicy)
	}

	//vuvuzela:allow plaintexttransport substrate only: every chain, shard and entry leg runs inside transport.Secure; the CDN serves public invitation buckets, nothing confidential
	tcp := transport.TCP{}
	role, err := deploy.Server(chain, key, tcp, mixnet.Config{
		Workers:      *workers,
		ShardTimeout: *shardTimeout,
		ShardPolicy:  policy,
		OnShardDegraded: func(round uint64, shard int, addr string, err error) {
			log.Printf("round %d: degraded around shard %d (%s): %v", round, shard, addr, err)
		},
	}, *fixedNoise)
	if err != nil {
		log.Fatal(err)
	}
	ls, err := deploy.Listen(tcp, role.Addrs)
	if err != nil {
		log.Fatal(err)
	}
	_, done, err := role.Boot(openRoundState(*roundState), ls)
	if err != nil {
		log.Fatal(err)
	}
	if len(role.Addrs) > 1 {
		log.Printf("serving invitation buckets on %s", role.Addrs[1])
	}
	log.Printf("vuvuzela %s listening on %s", role.Name, role.Addrs[0])
	log.Fatal(<-done)
}

// openRoundState opens the -round-state file of either role and logs where
// the process resumes; "" is nil, the memory-only counters (a shard's dial
// counter is always 0: it runs only the conversation exchange).
func openRoundState(path string) *roundstate.Counters {
	if path == "" {
		log.Printf("WARNING: no -round-state file; a restart of this process resets its replay protection")
		return nil
	}
	store, err := roundstate.OpenCounters(path)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("round state in %s (resuming after convo round %d, dial round %d)",
		path, store.Last(roundstate.ConvoCounter), store.Last(roundstate.DialCounter))
	return store
}

// vuvuzela-server runs one Vuvuzela server process.
//
// In the default chain mode it is one link of the mixnet (paper Algorithm
// 2); the last server in the chain additionally hosts the invitation CDN
// and the dead-drop exchange. When the chain config lists shard servers,
// the last server instead fans the exchange out to them by drop-ID
// prefix, and each shard runs as its own process in shard mode. Either
// role is wired from chain.json by internal/deploy.
//
// Usage:
//
//	vuvuzela-server -chain deploy/chain.json -key deploy/server-0.key
//	vuvuzela-server -chain deploy/chain.json -key deploy/shard-1.key -mode shard -shard-index 1
package main

import (
	"flag"
	"fmt"
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
	keyPath := flag.String("key", "", "server private key file")
	mode := flag.String("mode", "chain", `"chain" runs a mixnet link; "shard" runs one dead-drop shard server`)
	shardIndex := flag.Int("shard-index", -1, "this shard's index into the chain config's shards list (shard mode)")
	fixedNoise := flag.Bool("fixed-noise", false, "add exactly µ noise instead of sampling Laplace (evaluation mode, §8.1)")
	workers := flag.Int("workers", 0, "crypto worker goroutines (chain mode; 0 = all cores)")
	shardTimeout := flag.Duration("shard-timeout", time.Minute, "per-round RPC timeout to each shard server (last server only; 0 = wait forever)")
	shardPolicy := flag.String("shard-policy", "abort", `"abort" fails the round on any shard failure; "degrade" zero-fills an unreachable shard's replies and completes the round (authentication failures still abort; zero-filled replies are observable round metadata — see README)`)
	roundState := flag.String("round-state", "", `file durably recording the last-committed rounds, so a restarted server rejoins without replaying consumed rounds (chain and shard mode; empty = in-memory only; strongly recommended in production — see docs/THREAT_MODEL.md)`)
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
	var role deploy.Role
	switch *mode {
	case "chain":
		role, err = deploy.Server(chain, key, tcp, mixnet.Config{
			Workers:      *workers,
			ShardTimeout: *shardTimeout,
			ShardPolicy:  policy,
			OnShardDegraded: func(round uint64, shard int, addr string, err error) {
				log.Printf("round %d: degraded around shard %d (%s): %v", round, shard, addr, err)
			},
		}, *fixedNoise)
	case "shard":
		if *shardIndex >= 0 {
			key.Position = *shardIndex // shard key files record their index as Position
		}
		role, err = deploy.Shard(chain, key, mixnet.ShardConfig{})
	default:
		log.Fatalf("unknown -mode %q (want chain or shard)", *mode)
	}
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

	if *mode == "shard" {
		router := chain.Servers[len(chain.Servers)-1].PublicKey
		log.Printf("vuvuzela dead-drop shard %d/%d listening on %s (authenticated; router key %x...)",
			key.Position, len(chain.Shards), role.Addrs[0], router[:4])
		log.Fatal(<-done)
	}
	what := "mixing"
	if key.Position == len(chain.Servers)-1 {
		what = "last (dead drops)"
		if n := len(chain.Shards); n > 0 {
			what = fmt.Sprintf("last (routing dead drops to %d shards)", n)
		}
	}
	if len(role.Addrs) > 1 {
		log.Printf("serving invitation buckets on %s", role.Addrs[1])
	}
	log.Printf("vuvuzela server %d/%d (%s) listening on %s, convo noise µ=%.0f",
		key.Position, len(chain.Servers), what, role.Addrs[0], chain.ConvoNoiseMu)
	log.Fatal(<-done)
}

// openRoundState opens the -round-state file of either mode and logs where
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

// vuvuzela-server runs one Vuvuzela server process.
//
// In the default chain mode it is one link of the mixnet (paper Algorithm
// 2); the last server in the chain additionally hosts the invitation CDN
// and the dead-drop exchange. When the chain config lists shard servers,
// the last server instead fans the exchange out to them by drop-ID
// prefix, and each shard runs as its own process in shard mode.
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

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/config"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
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

	switch *mode {
	case "chain":
		runChain(chain, key, *fixedNoise, *workers, *shardTimeout, policy, *roundState)
	case "shard":
		runShard(chain, key, *shardIndex, *roundState)
	default:
		log.Fatalf("unknown -mode %q (want chain or shard)", *mode)
	}
}

// checkKey refuses to run with a key that does not match the published
// chain entry.
func checkKey(priv box.PrivateKey, want config.Key, what string) {
	if box.PublicKeyOf(&priv) != box.PublicKey(want) {
		log.Fatalf("private key does not match chain.json entry for %s", what)
	}
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

func runChain(chain *config.Chain, key *config.ServerKey, fixedNoise bool, workers int, shardTimeout time.Duration, policy mixnet.ShardPolicy, statePath string) {
	pos := key.Position
	if pos < 0 || pos >= len(chain.Servers) {
		log.Fatalf("key position %d out of range for %d-server chain", pos, len(chain.Servers))
	}
	priv := box.PrivateKey(key.PrivateKey)
	checkKey(priv, chain.Servers[pos].PublicKey, fmt.Sprintf("position %d", pos))

	var convoNoise, dialNoise noise.Distribution
	if fixedNoise {
		convoNoise = noise.Fixed{N: int(chain.ConvoNoiseMu)}
		dialNoise = noise.Fixed{N: int(chain.DialNoiseMu)}
	} else {
		convoNoise = noise.Laplace{Mu: chain.ConvoNoiseMu, B: chain.ConvoNoiseB}
		dialNoise = noise.Laplace{Mu: chain.DialNoiseMu, B: chain.DialNoiseB}
	}

	cfg := mixnet.Config{
		Position:   pos,
		ChainPubs:  chain.PublicKeys(),
		Priv:       priv,
		ConvoNoise: convoNoise,
		DialNoise:  dialNoise,
		Workers:    workers,
		//vuvuzela:allow plaintexttransport substrate only: mixnet wraps every successor and shard dial in transport.SecureClient
		Net: transport.TCP{},
	}
	last := pos == len(chain.Servers)-1
	var store *cdn.Store
	if last {
		store = cdn.NewStore(0)
		cfg.Buckets = store
		cfg.ShardAddrs = chain.ShardAddrs()
		cfg.ShardPubs = chain.ShardKeys()
		cfg.ShardTimeout = shardTimeout
		cfg.ShardPolicy = policy
		cfg.OnShardDegraded = func(round uint64, shard int, addr string, err error) {
			log.Printf("round %d: degraded around shard %d (%s): %v", round, shard, addr, err)
		}
	} else {
		cfg.NextAddr = chain.Servers[pos+1].Addr
	}

	cfg.RoundState = openRoundState(statePath)
	srv, err := mixnet.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if last && chain.CDNAddr() != "" {
		//vuvuzela:allow plaintexttransport the CDN serves public invitation buckets; there is nothing confidential on this leg
		cdnL, err := transport.TCP{}.Listen(chain.CDNAddr())
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := store.Serve(cdnL); err != nil {
				log.Printf("cdn: %v", err)
			}
		}()
		log.Printf("serving invitation buckets on %s", chain.CDNAddr())
	}

	//vuvuzela:allow plaintexttransport substrate only: mixnet.Serve wraps every accepted connection in transport.Secure before parsing a frame
	l, err := transport.TCP{}.Listen(chain.Servers[pos].Addr)
	if err != nil {
		log.Fatal(err)
	}
	role := "mixing"
	if last {
		role = "last (dead drops)"
		if n := len(chain.Shards); n > 0 {
			role = fmt.Sprintf("last (routing dead drops to %d shards)", n)
		}
	}
	log.Printf("vuvuzela server %d/%d (%s) listening on %s, convo noise µ=%.0f",
		pos, len(chain.Servers), role, chain.Servers[pos].Addr, chain.ConvoNoiseMu)
	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runShard(chain *config.Chain, key *config.ServerKey, index int, statePath string) {
	if len(chain.Shards) == 0 {
		log.Fatal("chain config lists no shard servers; generate one with vuvuzela-keygen chain -shards N")
	}
	if index < 0 {
		index = key.Position // shard key files record their index as Position
	}
	if index < 0 || index >= len(chain.Shards) {
		log.Fatalf("shard index %d out of range for %d shards", index, len(chain.Shards))
	}
	priv := box.PrivateKey(key.PrivateKey)
	checkKey(priv, chain.Shards[index].PublicKey, fmt.Sprintf("shard %d", index))

	// Only the last chain server — the shard router — may drive rounds
	// on this shard; its key comes from the same descriptor clients use.
	routerKey := box.PublicKey(chain.Servers[len(chain.Servers)-1].PublicKey)
	cfg := mixnet.ShardConfig{
		Index:      index,
		NumShards:  len(chain.Shards),
		Identity:   priv,
		Authorized: []box.PublicKey{routerKey},
	}
	cfg.RoundState = openRoundState(statePath)
	ss, err := mixnet.NewShardServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	//vuvuzela:allow plaintexttransport substrate only: ShardServer.Serve wraps every accepted connection in transport.SecureServer keyed to the authorized routers
	l, err := transport.TCP{}.Listen(chain.Shards[index].Addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("vuvuzela dead-drop shard %d/%d listening on %s (authenticated; router key %x...)",
		index, len(chain.Shards), chain.Shards[index].Addr, routerKey[:4])
	if err := ss.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

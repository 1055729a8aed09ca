package config

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/wire"
)

func TestChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pub, _ := box.KeyPairFromSeed([]byte("s0"))
	pub1, _ := box.KeyPairFromSeed([]byte("s1"))
	chain := &Chain{
		EntryAddr: "127.0.0.1:2718",
		Servers: []Server{
			{Addr: "127.0.0.1:2719", PublicKey: Key(pub)},
			{Addr: "127.0.0.1:2720", PublicKey: Key(pub1), CDNAddr: "127.0.0.1:2730"},
		},
		ConvoNoiseMu: 300000, ConvoNoiseB: 13800,
		DialNoiseMu: 13000, DialNoiseB: 770,
		DialBuckets: 1,
	}
	path := filepath.Join(dir, "chain.json")
	if err := Save(path, chain); err != nil {
		t.Fatal(err)
	}
	back, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.EntryAddr != chain.EntryAddr || len(back.Servers) != 2 {
		t.Fatalf("chain mismatch: %+v", back)
	}
	if back.Servers[1].CDNAddr != "127.0.0.1:2730" || back.CDNAddr() != "127.0.0.1:2730" {
		t.Fatal("cdn addr lost")
	}
	if back.ConvoNoiseMu != 300000 || back.DialBuckets != 1 {
		t.Fatal("noise params lost")
	}
	keys := back.PublicKeys()
	if len(keys) != 2 || keys[0] != pub {
		t.Fatal("public keys mismatch")
	}
}

func TestKeyFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pub, priv := box.KeyPairFromSeed([]byte("u"))

	skPath := filepath.Join(dir, "server.key")
	if err := Save(skPath, &ServerKey{PrivateKey: Key(priv)}); err != nil {
		t.Fatal(err)
	}
	sk, err := LoadServerKey(skPath)
	if err != nil {
		t.Fatal(err)
	}
	if sk.PrivateKey != Key(priv) {
		t.Fatal("server key mismatch")
	}

	ukPath := filepath.Join(dir, "user.key")
	if err := Save(ukPath, &UserKey{Name: "alice", PublicKey: Key(pub), PrivateKey: Key(priv)}); err != nil {
		t.Fatal(err)
	}
	uk, err := LoadUserKey(ukPath)
	if err != nil {
		t.Fatal(err)
	}
	if uk.Name != "alice" || uk.PublicKey != Key(pub) {
		t.Fatal("user key mismatch")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadChain(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing chain loaded")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := Save(empty, &Chain{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChain(empty); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestKeyJSONErrors(t *testing.T) {
	var k Key
	if err := k.UnmarshalJSON([]byte(`"zz"`)); err == nil {
		t.Fatal("bad hex accepted")
	}
	if err := k.UnmarshalJSON([]byte(`"abcd"`)); err == nil {
		t.Fatal("short key accepted")
	}
	if err := k.UnmarshalJSON([]byte(`123`)); err == nil {
		t.Fatal("non-string accepted")
	}
}

// TestChainShardsRoundTrip: the shard-server list survives the JSON
// round trip, in index order, and ShardAddrs/ShardKeys extract the
// fan-out addresses and keys (nil when the last server is unsharded).
func TestChainShardsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pub, _ := box.KeyPairFromSeed([]byte("server"))
	sh0, _ := box.KeyPairFromSeed([]byte("shard0"))
	sh1, _ := box.KeyPairFromSeed([]byte("shard1"))
	chain := &Chain{
		EntryAddr: "127.0.0.1:2718",
		Servers:   []Server{{Addr: "127.0.0.1:2719", PublicKey: Key(pub)}},
		Shards: []Server{
			{Addr: "127.0.0.1:2731", PublicKey: Key(sh0)},
			{Addr: "127.0.0.1:2732", PublicKey: Key(sh1)},
		},
		ConvoNoiseMu: 300000, ConvoNoiseB: 13800,
		DialNoiseMu: 13000, DialNoiseB: 770,
	}
	path := filepath.Join(dir, "chain.json")
	if err := Save(path, chain); err != nil {
		t.Fatal(err)
	}
	back, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	addrs := back.ShardAddrs()
	if len(addrs) != 2 || addrs[0] != "127.0.0.1:2731" || addrs[1] != "127.0.0.1:2732" {
		t.Fatalf("shard addrs lost: %v", addrs)
	}
	keys := back.ShardKeys()
	if len(keys) != 2 || keys[0] != sh0 || keys[1] != sh1 {
		t.Fatal("shard keys lost")
	}
	unsharded := &Chain{Servers: chain.Servers}
	if got := unsharded.ShardAddrs(); got != nil {
		t.Fatalf("unsharded chain returned shard addrs %v", got)
	}
	if got := unsharded.ShardKeys(); got != nil {
		t.Fatalf("unsharded chain returned shard keys %v", got)
	}
}

// TestChainValidate: zero keys, duplicate keys, keys that are not curve
// points, and missing addresses are rejected — both directly and through LoadChain, so a malformed or
// tampered descriptor cannot key the server-to-server channels — and so
// are noise parameters that give no differential privacy or could not fit
// a round's noise in one frame.
func TestChainValidate(t *testing.T) {
	pub0, _ := box.KeyPairFromSeed([]byte("v0"))
	pub1, _ := box.KeyPairFromSeed([]byte("v1"))
	good := func() *Chain {
		return &Chain{
			EntryAddr:    "a:0",
			Servers:      []Server{{Addr: "a:1", PublicKey: Key(pub0)}},
			Shards:       []Server{{Addr: "a:2", PublicKey: Key(pub1)}},
			ConvoNoiseMu: 300000, ConvoNoiseB: 13800,
			DialNoiseMu: 13000, DialNoiseB: 770,
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}

	c := good()
	c.Servers[0].PublicKey = Key{}
	if err := c.Validate(); err == nil {
		t.Fatal("zero server key accepted")
	}
	c = good()
	c.Shards[0].PublicKey = Key{}
	if err := c.Validate(); err == nil {
		t.Fatal("zero shard key accepted")
	}
	c = good()
	c.Shards[0].PublicKey = Key(pub0)
	if err := c.Validate(); err == nil {
		t.Fatal("shard sharing the server's key accepted")
	}
	c = good()
	c.Shards = append(c.Shards, Server{Addr: "a:3", PublicKey: Key(pub1)})
	if err := c.Validate(); err == nil {
		t.Fatal("two shards sharing a key accepted")
	}
	c = good()
	c.Servers[0].PublicKey = Key{2} // u = 2: a point of the twist, not the curve
	if err := c.Validate(); err == nil {
		t.Fatal("a server key that is not a curve25519 point accepted")
	}
	c = good()
	c.Shards[0].Addr = ""
	if err := c.Validate(); err == nil {
		t.Fatal("shard without an address accepted")
	}
	c = good()
	c.EntryAddr = ""
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "entry_addr") {
		t.Fatalf("chain without an entry address: %v", err)
	}
	if err := (&Chain{}).Validate(); err == nil {
		t.Fatal("empty chain accepted")
	}
	c = good()
	c.Servers = make([]Server, MaxServers+1)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("over-long chain: %v", err)
	}

	// Noise, for both protocols: b must be a finite positive number, µ a
	// non-negative one whose round of noise fits one frame.
	for _, tc := range []struct {
		name string
		edit func(c *Chain)
		want string
	}{
		{"convo b missing", func(c *Chain) { c.ConvoNoiseB = 0 }, "convo_noise_b"},
		{"convo b negative", func(c *Chain) { c.ConvoNoiseB = -1 }, "convo_noise_b"},
		{"convo b NaN", func(c *Chain) { c.ConvoNoiseB = math.NaN() }, "convo_noise_b"},
		{"convo b infinite", func(c *Chain) { c.ConvoNoiseB = math.Inf(1) }, "convo_noise_b"},
		{"convo µ negative", func(c *Chain) { c.ConvoNoiseMu = -1 }, "convo_noise_mu"},
		{"convo µ NaN", func(c *Chain) { c.ConvoNoiseMu = math.NaN() }, "convo_noise_mu"},
		{"convo µ infinite", func(c *Chain) { c.ConvoNoiseMu = math.Inf(1) }, "convo_noise_mu"},
		{"convo µ beyond a frame", func(c *Chain) { c.ConvoNoiseMu = 1e300 }, "convo_noise_mu"},
		{"convo µ just beyond a frame", func(c *Chain) { c.ConvoNoiseMu = wire.MaxBodyParts/2 + 1 }, "convo_noise_mu"},
		{"dial b missing", func(c *Chain) { c.DialNoiseB = 0 }, "dial_noise_b"},
		{"dial b negative", func(c *Chain) { c.DialNoiseB = -770 }, "dial_noise_b"},
		{"dial µ negative", func(c *Chain) { c.DialNoiseMu = -13000 }, "dial_noise_mu"},
		{"dial µ beyond a frame over its buckets", func(c *Chain) {
			c.DialBuckets = 4
			c.DialNoiseMu = wire.MaxBodyParts/4 + 1
		}, "dial_noise_mu"},
	} {
		c := good()
		tc.edit(c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a refusal naming %s", tc.name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		edit func(c *Chain)
	}{
		{"no noise at all", func(c *Chain) { c.ConvoNoiseMu, c.DialNoiseMu = 0, 0 }},
		{"convo µ at a frame", func(c *Chain) { c.ConvoNoiseMu = wire.MaxBodyParts / 2 }},
		{"dial µ at a frame over its buckets", func(c *Chain) {
			c.DialBuckets = 4
			c.DialNoiseMu = wire.MaxBodyParts / 4
		}},
	} {
		c := good()
		tc.edit(c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
	}

	// LoadChain applies the same validation to files.
	dir := t.TempDir()
	bad := good()
	bad.Shards[0].PublicKey = bad.Servers[0].PublicKey
	path := filepath.Join(dir, "chain.json")
	if err := Save(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChain(path); err == nil {
		t.Fatal("LoadChain accepted a chain with duplicate keys")
	}
	bad = good()
	bad.ConvoNoiseB = 0
	if err := Save(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChain(path); err == nil {
		t.Fatal("LoadChain accepted a chain whose conversation noise has b = 0")
	}
}

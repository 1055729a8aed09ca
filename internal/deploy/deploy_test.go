package deploy_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vuvuzela/internal/config"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/transport"
)

// small is a layout with every keyed role: two chain servers, a shard
// and a frontend, so the entry holds a pipe key.
var small = deploy.Layout{
	Servers: 2, Shards: 1, Frontends: 1, Host: "127.0.0.1", BasePort: 2719,
	ConvoMu: 20, ConvoB: 5, DialMu: 5, DialB: 2, DialBuckets: 1,
}

// keyedRole is one of the two role functions that take a server key,
// over nw.
type keyedRole func(c *config.Chain, key *config.ServerKey, nw transport.Network) (deploy.Role, error)

// boot starts one keyed role of c with key on an in-memory network, then
// stops it: the address it listened on first, or the role function's or
// Boot's error.
func boot(start keyedRole, c *config.Chain, key *config.ServerKey) (string, error) {
	mem := transport.NewMem()
	role, err := start(c, key, mem)
	if err != nil {
		return "", err
	}
	ls, err := deploy.Listen(mem, role.Addrs)
	if err != nil {
		return "", err
	}
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	proc, _, err := role.Boot(nil, ls)
	if err != nil {
		return "", err
	}
	return role.Addrs[0], proc.Close()
}

func server(c *config.Chain, key *config.ServerKey, nw transport.Network) (deploy.Role, error) {
	return deploy.Server(c, key, nw, mixnet.Config{}, false)
}

func entry(c *config.Chain, key *config.ServerKey, nw transport.Network) (deploy.Role, error) {
	return deploy.Entry(c, key, nw, coordinator.Config{})
}

// oldFormat writes key as a key file of the format that also recorded a
// "position", here a wrong one, and reads it back.
func oldFormat(t *testing.T, key config.ServerKey, position int) *config.ServerKey {
	path := filepath.Join(t.TempDir(), "old.key")
	data := fmt.Sprintf(`{"position": %d, "private_key": "%x"}`, position, key.PrivateKey[:])
	if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
		t.Fatal(err)
	}
	k, err := config.LoadServerKey(path)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKeyChecks: a server key is its place in the descriptor. Every key
// Generate returns boots exactly its own role — a chain server's or a
// shard's through Server, at its own address, the entry's pipe key
// through Entry — and the other function refuses it; Server refuses a key
// from another deployment naming chain.json; and a key file in the old
// format boots the role its key names, whatever position it records.
func TestKeyChecks(t *testing.T) {
	c, keys, err := deploy.Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	_, foreign, err := deploy.Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	starts := []keyedRole{server, entry}
	refusals := []string{"chain.json", "the entry's pipe key (entry_front_key)"}
	// owner indexes starts: the one function that boots key, at addr;
	// -1 is none.
	type keyRow struct {
		key   *config.ServerKey
		owner int
		addr  string
	}
	groups := []struct {
		name string
		rows []keyRow
	}{
		{"server", []keyRow{{&keys.Servers[0], 0, c.Servers[0].Addr}, {&keys.Servers[1], 0, c.Servers[1].Addr}}},
		{"shard", []keyRow{{&keys.Shards[0], 0, c.Shards[0].Addr}}},
		{"entry", []keyRow{{keys.Entry, 1, c.EntryAddr}}},
		{"foreign", []keyRow{{&foreign.Servers[0], -1, ""}, {&foreign.Shards[0], -1, ""}, {foreign.Entry, -1, ""}}},
		{"old-format", []keyRow{
			{oldFormat(t, keys.Servers[1], 0), 0, c.Servers[1].Addr},
			{oldFormat(t, keys.Shards[0], 1), 0, c.Shards[0].Addr},
			{oldFormat(t, keys.Servers[0], -1), 0, c.Servers[0].Addr},
		}},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for i, row := range g.rows {
				for f, start := range starts {
					addr, err := boot(start, c, row.key)
					switch {
					case f == row.owner && err != nil:
						t.Fatalf("key %d refused: %v", i, err)
					case f == row.owner && addr != row.addr:
						t.Fatalf("key %d booted the role on %s, want %s", i, addr, row.addr)
					case f != row.owner && err == nil:
						t.Fatalf("key %d booted a second role, on %s", i, addr)
					case f != row.owner && !strings.Contains(err.Error(), refusals[f]):
						t.Fatalf("key %d refused with %q, which does not name %q", i, err, refusals[f])
					}
				}
			}
		})
	}
}

// TestGenerateRoundTrip: what vuvuzela-keygen chain writes — the chain
// and every key file, through config.Save — reads back equal to what was
// generated, passes LoadChain's validation, and every key file passes
// its role's key check.
func TestGenerateRoundTrip(t *testing.T) {
	c, keys, err := deploy.Generate(deploy.Layout{
		Servers: 3, Shards: 2, Frontends: 2, Host: "127.0.0.1", BasePort: 2719,
		ConvoMu: 20, ConvoB: 5, DialMu: 5, DialB: 2, DialBuckets: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	save := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := config.Save(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	back, err := config.LoadChain(save("chain.json", c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("chain read back as %+v, generated %+v", back, c)
	}
	reload := func(name string, key *config.ServerKey) *config.ServerKey {
		k, err := config.LoadServerKey(save(name, key))
		if err != nil {
			t.Fatal(err)
		}
		if *k != *key {
			t.Fatalf("%s read back as %+v, generated %+v", name, *k, *key)
		}
		return k
	}
	for i := range keys.Servers {
		k := reload(fmt.Sprintf("server-%d.key", i), &keys.Servers[i])
		if _, err := boot(server, back, k); err != nil {
			t.Fatalf("server-%d.key: %v", i, err)
		}
	}
	for i := range keys.Shards {
		k := reload(fmt.Sprintf("shard-%d.key", i), &keys.Shards[i])
		if _, err := boot(server, back, k); err != nil {
			t.Fatalf("shard-%d.key: %v", i, err)
		}
	}
	if _, err := boot(entry, back, reload("entry.key", keys.Entry)); err != nil {
		t.Fatalf("entry.key: %v", err)
	}
}

// TestGenerateLayout pins the port layout, which examples/chain/smoke.sh's
// port block depends on: the entry at base−1, its pipe at base−2, the
// servers from base, the CDN at base+servers, then the shards, then the
// frontends.
func TestGenerateLayout(t *testing.T) {
	c, keys, err := deploy.Generate(deploy.Layout{
		Servers: 3, Shards: 2, Frontends: 2, Host: "h", BasePort: 100,
		ConvoMu: 20, ConvoB: 5, DialMu: 5, DialB: 2, DialBuckets: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("entry %s pipe %s servers %v cdn %s shards %v frontends %v",
		c.EntryAddr, c.EntryFrontAddr, []string{c.Servers[0].Addr, c.Servers[1].Addr, c.Servers[2].Addr},
		c.CDNAddr(), c.ShardAddrs(), c.Frontends)
	want := "entry h:99 pipe h:98 servers [h:100 h:101 h:102] cdn h:103 shards [h:104 h:105] frontends [h:106 h:107]"
	if got != want {
		t.Fatalf("layout\n got %s\nwant %s", got, want)
	}
	// The key files carry no place: keygen names them by the order here.
	for name, pair := range map[string]struct {
		key *config.ServerKey
		pub config.Key
	}{
		"server-2": {&keys.Servers[2], c.Servers[2].PublicKey},
		"shard-1":  {&keys.Shards[1], c.Shards[1].PublicKey},
		"entry":    {keys.Entry, c.EntryFrontKey},
	} {
		priv := box.PrivateKey(pair.key.PrivateKey)
		if config.Key(box.PublicKeyOf(&priv)) != pair.pub {
			t.Fatalf("%s.key's public half is not its place's key in the chain", name)
		}
	}
}

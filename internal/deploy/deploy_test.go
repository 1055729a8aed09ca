package deploy_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vuvuzela/internal/config"
	"vuvuzela/internal/coordinator"
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

// keyedRole is one keyed role's function, over nw.
type keyedRole func(c *config.Chain, key *config.ServerKey, nw transport.Network) (deploy.Role, error)

// boot starts one keyed role of c with key on an in-memory network, then
// stops it: the error is the role function's or Boot's.
func boot(start keyedRole, c *config.Chain, key *config.ServerKey) error {
	mem := transport.NewMem()
	role, err := start(c, key, mem)
	if err != nil {
		return err
	}
	ls, err := deploy.Listen(mem, role.Addrs)
	if err != nil {
		return err
	}
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	proc, _, err := role.Boot(nil, ls)
	if err != nil {
		return err
	}
	return proc.Close()
}

func chainServer(c *config.Chain, key *config.ServerKey, nw transport.Network) (deploy.Role, error) {
	return deploy.Server(c, key, nw, mixnet.Config{}, false)
}

func shard(c *config.Chain, key *config.ServerKey, _ transport.Network) (deploy.Role, error) {
	return deploy.Shard(c, key, mixnet.ShardConfig{})
}

func entry(c *config.Chain, key *config.ServerKey, nw transport.Network) (deploy.Role, error) {
	return deploy.Entry(c, key, nw, coordinator.Config{})
}

// TestKeyChecks: every keyed role boots with its own key from a
// generated descriptor and refuses every other role's key from the same
// descriptor with an error naming the role — the entry's pipe key
// included, which no constructor checks on its own.
func TestKeyChecks(t *testing.T) {
	c, keys, err := deploy.Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	type labeled struct {
		role string
		key  *config.ServerKey
	}
	all := []labeled{
		{"server", &keys.Servers[0]}, {"server", &keys.Servers[1]},
		{"shard", &keys.Shards[0]},
		{"entry", keys.Entry},
	}
	rows := []struct {
		role  string
		start keyedRole
		own   *config.ServerKey
		names string
	}{
		{"server", chainServer, &keys.Servers[1], "chain server"},
		{"shard", shard, &keys.Shards[0], "shard"},
		{"entry", entry, keys.Entry, "the entry's pipe key (entry_front_key)"},
	}
	for _, row := range rows {
		t.Run(row.role, func(t *testing.T) {
			if err := boot(row.start, c, row.own); err != nil {
				t.Fatalf("own key refused: %v", err)
			}
			for _, other := range all {
				if other.role == row.role {
					continue
				}
				err := boot(row.start, c, other.key)
				if err == nil {
					t.Fatalf("%s key (position %d) booted the %s", other.role, other.key.Position, row.role)
				}
				if !strings.Contains(err.Error(), row.names) {
					t.Fatalf("%s key refused with %q, which does not name %q", other.role, err, row.names)
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
		if err := boot(chainServer, back, k); err != nil {
			t.Fatalf("server-%d.key: %v", i, err)
		}
	}
	for i := range keys.Shards {
		k := reload(fmt.Sprintf("shard-%d.key", i), &keys.Shards[i])
		if err := boot(shard, back, k); err != nil {
			t.Fatalf("shard-%d.key: %v", i, err)
		}
	}
	if err := boot(entry, back, reload("entry.key", keys.Entry)); err != nil {
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
	positions := fmt.Sprint(keys.Servers[2].Position, keys.Shards[1].Position, keys.Entry.Position)
	if positions != "2 1 -1" {
		t.Fatalf("key file positions (server 2, shard 1, entry) = %s, want 2 1 -1", positions)
	}
}

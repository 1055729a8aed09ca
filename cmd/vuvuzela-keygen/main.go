// vuvuzela-keygen generates deployment key material: a chain config with
// fresh server key pairs and per-server private key files — written as
// internal/deploy's generator lays them out, the same generator the
// in-process harness runs — and user identity files registered into a
// PKI directory.
//
// Usage:
//
//	vuvuzela-keygen chain -servers 3 -out ./deploy -base-port 2719
//	vuvuzela-keygen user  -name alice -out ./deploy
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"vuvuzela/internal/config"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/pki"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "chain":
		chainCmd(os.Args[2:])
	case "user":
		if err := userCmd(os.Args[2:]); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vuvuzela-keygen chain -servers N -out DIR [-shards K] [-frontends F] [-host HOST] [-base-port PORT] [-mu MU] [-b B] [-dial-mu MU] [-dial-b B] [-dial-buckets M]
  vuvuzela-keygen user  -name NAME -out DIR`)
	os.Exit(2)
}

func chainCmd(args []string) {
	d := deploy.Defaults
	fs := flag.NewFlagSet("chain", flag.ExitOnError)
	fs.IntVar(&d.Servers, "servers", d.Servers, "number of chain servers")
	fs.IntVar(&d.Shards, "shards", d.Shards, "networked dead-drop shard servers behind the last server (0 = in-process exchange)")
	fs.IntVar(&d.Frontends, "frontends", d.Frontends, "stateless entry frontends in front of the entry server (0 = clients connect to the entry directly)")
	out := fs.String("out", ".", "output directory")
	fs.StringVar(&d.Host, "host", d.Host, "host for generated addresses")
	fs.IntVar(&d.BasePort, "base-port", d.BasePort, "first server port (entry uses base-port-1, CDN uses base-port+servers, shards follow the CDN)")
	fs.Float64Var(&d.ConvoMu, "mu", d.ConvoMu, "conversation noise mean µ per mixing server")
	fs.Float64Var(&d.ConvoB, "b", d.ConvoB, "conversation noise scale b")
	fs.Float64Var(&d.DialMu, "dial-mu", d.DialMu, "dialing noise mean µ per bucket")
	fs.Float64Var(&d.DialB, "dial-b", d.DialB, "dialing noise scale b")
	dialBuckets := fs.Uint("dial-buckets", uint(d.DialBuckets), "invitation dead drop count m")
	fs.Parse(args)
	d.DialBuckets = uint32(*dialBuckets)

	chain, keys, err := deploy.Generate(d)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	save := func(name string, v any, note string) string {
		path := filepath.Join(*out, name)
		if err := config.Save(path, v); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s%s\n", path, note)
		return path
	}
	for i := range keys.Servers {
		save(fmt.Sprintf("server-%d.key", i), &keys.Servers[i], "")
	}
	for i := range keys.Shards {
		save(fmt.Sprintf("shard-%d.key", i), &keys.Shards[i], "")
	}
	if keys.Entry != nil {
		save("entry.key", keys.Entry, "")
	}
	chainPath := save("chain.json", chain, fmt.Sprintf(" (%d servers, %d shards, %d frontends, entry %s)",
		d.Servers, d.Shards, d.Frontends, chain.EntryAddr))
	if d.Frontends > 0 {
		fmt.Printf("frontends authenticate the entry's pipe key; run each with\n  vuvuzela-frontend -chain %s -index I\nand the entry with -key %s\n",
			chainPath, filepath.Join(*out, "entry.key"))
	}
	fmt.Printf("a key's place in chain.json is its role; run every chain server and shard with its own key:\n  vuvuzela-server -chain %s -key %s\n",
		chainPath, filepath.Join(*out, "NAME.key"))
}

// userCmd writes a user's identity file and registers the user in the
// directory users.json, which it starts only where none exists: a
// directory that does not load is an error, with no file written.
func userCmd(args []string) error {
	flags := flag.NewFlagSet("user", flag.ExitOnError)
	name := flags.String("name", "", "username")
	out := flags.String("out", ".", "output directory")
	flags.Parse(args)
	if *name == "" {
		usage()
	}

	dirPath := filepath.Join(*out, "users.json")
	dir, err := pki.Load(dirPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		dir = pki.NewDirectory()
	case err != nil:
		return fmt.Errorf("%w; nothing written (repair or move it, then register %q again)", err, *name)
	}
	pub, priv, err := box.GenerateKey(nil)
	if err != nil {
		return err
	}
	keyPath := filepath.Join(*out, *name+".key")
	if err := config.Save(keyPath, &config.UserKey{
		Name: *name, PublicKey: config.Key(pub), PrivateKey: config.Key(priv),
	}); err != nil {
		return err
	}
	dir.Register(*name, pub)
	if err := dir.Save(dirPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s and registered %q in %s\n", keyPath, *name, dirPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vuvuzela-keygen:", err)
	os.Exit(1)
}

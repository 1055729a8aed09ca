// Package config defines the JSON configuration files shared by the
// command-line tools: the chain description every participant loads ahead
// of time (paper §3: "the chain of servers, along with each server's
// public key, is known to clients ahead of time") and the private key
// files for servers and users.
package config

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/wire"
)

// Key is a hex-encoded 32-byte key in JSON.
type Key [32]byte

// MarshalJSON implements json.Marshaler.
func (k Key) MarshalJSON() ([]byte, error) {
	return json.Marshal(hex.EncodeToString(k[:]))
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *Key) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("config: bad hex key: %w", err)
	}
	if len(raw) != 32 {
		return fmt.Errorf("config: key is %d bytes, want 32", len(raw))
	}
	copy(k[:], raw)
	return nil
}

// Server describes one chain server as seen by clients and peers.
type Server struct {
	// Addr is the address the server listens on for its predecessor.
	Addr string `json:"addr"`
	// PublicKey is the server's long-term key.
	PublicKey Key `json:"public_key"`
	// CDNAddr is where the last server serves invitation buckets; empty
	// for other positions.
	CDNAddr string `json:"cdn_addr,omitempty"`
}

// Chain is the shared deployment description.
type Chain struct {
	// EntryAddr is the entry server's client-facing address.
	EntryAddr string `json:"entry_addr"`
	// EntryFrontAddr is where the entry server listens for its frontend
	// pipes (`vuvuzela-frontend`); empty when the deployment has no
	// frontend tier and every client connects to EntryAddr directly.
	EntryFrontAddr string `json:"entry_front_addr,omitempty"`
	// EntryFrontKey is the public half of the entry server's
	// frontend-pipe identity (the private half lives in entry.key);
	// frontends authenticate the pipe against it so a network adversary
	// cannot impersonate the round clock. Zero when EntryFrontAddr is
	// empty.
	EntryFrontKey Key `json:"entry_front_key,omitempty"`
	// Frontends lists the client-facing addresses of the stateless entry
	// frontends, in index order. Empty means clients connect to
	// EntryAddr directly.
	Frontends []string `json:"frontends,omitempty"`
	// Servers lists the chain in order; clients onion-encrypt for all of
	// them, entry connects to Servers[0].
	Servers []Server `json:"servers"`
	// Shards lists the last server's networked dead-drop shard servers
	// (`vuvuzela-server` given a shard's key), in shard-index order. Empty means
	// the last server runs the exchange in-process. Each entry carries
	// the shard's listen address and its long-term key (shard servers
	// hold keys like chain servers do, so a deployment can authenticate
	// and later encrypt the router↔shard leg). Clients never see shard
	// servers; only the last server's fan-out uses this list.
	Shards []Server `json:"shards,omitempty"`
	// ConvoNoiseMu is the location of the conversation noise
	// distribution each mixing server draws from.
	ConvoNoiseMu float64 `json:"convo_noise_mu"`
	// ConvoNoiseB is the scale of the conversation noise distribution.
	ConvoNoiseB float64 `json:"convo_noise_b"`
	// DialNoiseMu is the location of the per-bucket dialing noise
	// distribution.
	DialNoiseMu float64 `json:"dial_noise_mu"`
	// DialNoiseB is the scale of the per-bucket dialing noise
	// distribution.
	DialNoiseB float64 `json:"dial_noise_b"`
	// DialBuckets is the invitation dead-drop count m.
	DialBuckets uint32 `json:"dial_buckets"`
}

// PublicKeys returns the chain's keys in box form.
func (c *Chain) PublicKeys() []box.PublicKey {
	out := make([]box.PublicKey, len(c.Servers))
	for i, s := range c.Servers {
		out[i] = box.PublicKey(s.PublicKey)
	}
	return out
}

// ClientAddrs returns the addresses clients should connect to: the
// frontend tier when one is deployed, otherwise the entry server
// itself. Callers spread their clients across the returned slice.
func (c *Chain) ClientAddrs() []string {
	if len(c.Frontends) > 0 {
		return c.Frontends
	}
	return []string{c.EntryAddr}
}

// CDNAddr returns the last server's bucket-serving address.
func (c *Chain) CDNAddr() string {
	if len(c.Servers) == 0 {
		return ""
	}
	return c.Servers[len(c.Servers)-1].CDNAddr
}

// ShardAddrs returns the dead-drop shard addresses in shard-index order,
// or nil for an unsharded last server.
func (c *Chain) ShardAddrs() []string {
	if len(c.Shards) == 0 {
		return nil
	}
	out := make([]string, len(c.Shards))
	for i, s := range c.Shards {
		out[i] = s.Addr
	}
	return out
}

// ShardKeys returns the shard servers' public keys in box form, aligned
// with ShardAddrs, or nil for an unsharded last server. The last chain
// server keys its authenticated fan-out channels with these.
func (c *Chain) ShardKeys() []box.PublicKey {
	if len(c.Shards) == 0 {
		return nil
	}
	out := make([]box.PublicKey, len(c.Shards))
	for i, s := range c.Shards {
		out[i] = box.PublicKey(s.PublicKey)
	}
	return out
}

// MaxServers is the longest chain a descriptor may list: each server adds
// 48 bytes to every onion, and the entry tier drops a client whose onions
// exceed a fixed size (internal/collector).
const MaxServers = 64

// Validate checks the structural invariants every tool relies on: at
// least one and at most MaxServers servers, no empty addresses (the
// entry's included: it would listen on a random port), no zero
// keys, and no key shared between two entries — a zero or duplicated key
// would silently undermine the authenticated server-to-server channels
// keyed from this file — and no key that box.NewPeer refuses: a value
// that is not a curve25519 point has no private half any server could
// hold, yet clients and mixing servers would wrap toward it every round.
// The noise parameters of both protocols must give differential privacy
// at all (CheckNoise). LoadChain applies it to every chain read from
// disk, and keygen to every chain it writes.
func (c *Chain) Validate() error {
	if len(c.Servers) == 0 {
		return fmt.Errorf("config: chain has no servers")
	}
	if len(c.Servers) > MaxServers {
		return fmt.Errorf("config: chain has %d servers, more than the %d supported", len(c.Servers), MaxServers)
	}
	if c.EntryAddr == "" {
		return fmt.Errorf("config: chain has no entry_addr")
	}
	seen := make(map[Key]string)
	check := func(what string, s Server) error {
		if s.Addr == "" {
			return fmt.Errorf("config: %s has no address", what)
		}
		if s.PublicKey == (Key{}) {
			return fmt.Errorf("config: %s has a zero public key", what)
		}
		if _, err := box.NewPeer((*box.PublicKey)(&s.PublicKey)); err != nil {
			return fmt.Errorf("config: %s: %w", what, err)
		}
		if prev, ok := seen[s.PublicKey]; ok {
			return fmt.Errorf("config: %s shares its public key with %s", what, prev)
		}
		seen[s.PublicKey] = what
		return nil
	}
	for i, s := range c.Servers {
		if err := check(fmt.Sprintf("server %d", i), s); err != nil {
			return err
		}
	}
	for i, s := range c.Shards {
		if err := check(fmt.Sprintf("shard %d", i), s); err != nil {
			return err
		}
	}
	if len(c.Frontends) > 0 && c.EntryFrontAddr == "" {
		return fmt.Errorf("config: frontends listed but no entry_front_addr for their pipes")
	}
	if c.EntryFrontAddr != "" {
		if err := check("entry front pipe", Server{Addr: c.EntryFrontAddr, PublicKey: c.EntryFrontKey}); err != nil {
			return err
		}
		for i, a := range c.Frontends {
			if a == "" {
				return fmt.Errorf("config: frontend %d has no address", i)
			}
		}
	}
	// A mixing server's conversation noise is singles plus pairs, ≈ 2µ
	// requests a round; its dialing noise is µ per bucket.
	if err := CheckNoise("convo", c.ConvoNoiseMu, c.ConvoNoiseB, 2); err != nil {
		return err
	}
	return CheckNoise("dial", c.DialNoiseMu, c.DialNoiseB, float64(max(1, c.DialBuckets)))
}

// CheckNoise refuses one protocol's Laplace(µ, b) unless it is noise: a b
// that is not a finite positive number voids the privacy accounting (at
// b = 0 every server adds exactly µ, which hides nothing), a µ that is not
// a number or negative adds none, and a µ whose round of noise — µ times
// perMu requests — cannot fit one wire frame would fail every round.
func CheckNoise(proto string, mu, b, perMu float64) error {
	switch {
	case !(b > 0) || math.IsInf(b, 1):
		return fmt.Errorf("config: %s_noise_b is %v, want a finite b > 0 (b = 0 is no differential privacy)", proto, b)
	case !(mu >= 0):
		return fmt.Errorf("config: %s_noise_mu is %v, want µ >= 0", proto, mu)
	case mu*perMu > wire.MaxBodyParts:
		return fmt.Errorf("config: %s_noise_mu is %v: a round of that noise does not fit one frame of %d requests", proto, mu, wire.MaxBodyParts)
	}
	return nil
}

// ServerKey is a server's private key file: a chain server's, a shard's
// or the entry's frontend-pipe key. It names no role; the role is the
// one whose public key in the Chain is this key's public half. Files
// written before that rule may carry a "position", which loading ignores.
type ServerKey struct {
	PrivateKey Key `json:"private_key"` // the server's long-term private key
}

// UserKey is a user's identity file.
type UserKey struct {
	Name       string `json:"name"`        // human-readable label; not sent on the wire
	PublicKey  Key    `json:"public_key"`  // the user's long-term public key
	PrivateKey Key    `json:"private_key"` // the user's long-term private key
}

// Save writes any config value as indented JSON. Key files get 0600.
func Save(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	mode := os.FileMode(0o644)
	switch v.(type) {
	case *ServerKey, ServerKey, *UserKey, UserKey:
		mode = 0o600
	}
	return os.WriteFile(path, append(data, '\n'), mode)
}

// LoadChain reads and validates a chain file.
func LoadChain(path string) (*Chain, error) {
	var c Chain
	if err := load(path, &c); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &c, nil
}

// LoadServerKey reads a server key file.
func LoadServerKey(path string) (*ServerKey, error) {
	var k ServerKey
	if err := load(path, &k); err != nil {
		return nil, err
	}
	return &k, nil
}

// LoadUserKey reads a user identity file.
func LoadUserKey(path string) (*UserKey, error) {
	var k UserKey
	if err := load(path, &k); err != nil {
		return nil, err
	}
	return &k, nil
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("config: parsing %s: %w", path, err)
	}
	return nil
}

// Package vuvuzela is a from-scratch Go implementation of Vuvuzela, the
// scalable private messaging system of van den Hooff, Lazar, Zaharia, and
// Zeldovich (SOSP 2015). Vuvuzela hides both message data and metadata —
// which pairs of users are communicating — from an adversary who observes
// and tampers with all network traffic and controls all but one server,
// by minimizing the observable variables of its protocols and covering
// them with Laplace noise sized by differential privacy.
//
// This package is the public facade. It re-exports the key types, runs
// a complete deployment inside one process — internal/sim's ChainNet,
// whose nodes internal/deploy boots from a chain descriptor exactly as
// the cmd/ binaries boot theirs from chain.json, over an in-memory
// transport instead of TCP, plus real clients — and
// exposes the privacy-analysis toolkit used to choose noise parameters.
// The in-process deployment is the paper's prototype (§7): three servers,
// one conversation exchange per client per round, one round of each
// protocol at a time. Its options are the two protocols' noise and the
// dialing bucket count m, which become its chain descriptor's.
// The building blocks live in internal/ packages: the NaCl crypto suite,
// onion encryption, the mixnet chain server, the conversation and
// dialing protocols, the entry-server coordinator, the invitation CDN,
// and the evaluation harness.
//
// A minimal session looks like:
//
//	net, _ := vuvuzela.NewInProcessNetwork(vuvuzela.Options{})
//	defer net.Close()
//	alice, _ := net.NewClient("alice")
//	bob, _ := net.NewClient("bob")
//	alice.StartConversation(bob.PublicKey())
//	bob.StartConversation(alice.PublicKey())
//	alice.Send("hi bob")
//	net.RunConvoRound(ctx)
//	// <-bob.Events() yields MessageEvent{Text: "hi bob"}
package vuvuzela

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vuvuzela/internal/client"
	"vuvuzela/internal/config"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/privacy"
	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
)

// Key types.
type (
	// PublicKey is a user's or server's long-term X25519 public key.
	PublicKey = box.PublicKey
	// PrivateKey is the corresponding private key.
	PrivateKey = box.PrivateKey
)

// Client is a connected Vuvuzela client; see the Events channel for
// incoming messages and invitations.
type Client = client.Client

// Client event types, re-exported for consumers of Client.Events().
type (
	// Event is any client event.
	Event = client.Event
	// MessageEvent is an in-order conversation message.
	MessageEvent = client.MessageEvent
	// InvitationEvent is an incoming call.
	InvitationEvent = client.InvitationEvent
	// ConvoRoundEvent marks a completed conversation round.
	ConvoRoundEvent = client.ConvoRoundEvent
	// DialRoundEvent marks a completed dialing round.
	DialRoundEvent = client.DialRoundEvent
	// ErrorEvent reports a background client failure.
	ErrorEvent = client.ErrorEvent
)

// GenerateKeyPair creates a fresh long-term key pair.
func GenerateKeyPair() (PublicKey, PrivateKey, error) {
	return box.GenerateKey(nil)
}

// KeyPairFromSeed derives a deterministic key pair (tests, simulations).
func KeyPairFromSeed(seed string) (PublicKey, PrivateKey) {
	return box.KeyPairFromSeed([]byte(seed))
}

// NoiseParams selects a cover-traffic distribution: Laplace(Mu, B)
// truncated at zero (paper Algorithm 2 step 2).
type NoiseParams struct {
	Mu float64 // mean (location)
	B  float64 // scale
}

// Options configures a deployment.
type Options struct {
	// ConvoNoise is each mixing server's conversation cover traffic.
	// Default: the paper's µ=300,000, b=13,800 scaled DOWN for laptop use
	// is deliberately NOT applied — the default is Laplace(µ=500, b=100),
	// suitable for in-process experimentation. Production deployments
	// should use PlanConvoNoise / DefaultConvoNoise.
	ConvoNoise *NoiseParams
	// DialNoise is the per-bucket dialing noise (default Laplace(50, 10)
	// for in-process use; the paper's production value is µ=13,000).
	DialNoise *NoiseParams
	// DialBuckets is the number of invitation dead drops m (default 1)
	// every dialing round announces: the descriptor's dial_buckets.
	DialBuckets uint32
}

// DefaultConvoNoise is the paper's production conversation noise:
// µ=300,000, b=13,800, supporting ≈250,000 rounds at ε′=ln2, δ′=10⁻⁴
// (§6.4). It is vuvuzela-keygen chain's default.
var DefaultConvoNoise = NoiseParams{Mu: deploy.Defaults.ConvoMu, B: deploy.Defaults.ConvoB}

// DefaultDialNoise is the paper's production dialing noise (µ=13,000;
// §8.1), vuvuzela-keygen chain's default. The paper prints b=7,700, which
// gives a per-round δ ≈ 0.09; b=770 covers its ≈3,500 dialing rounds
// (internal/privacy's TestPaperDialConfigurations).
var DefaultDialNoise = NoiseParams{Mu: deploy.Defaults.DialMu, B: deploy.Defaults.DialB}

// Network is a complete Vuvuzela deployment inside one process, wired
// exactly as the production binaries are: it is a sim.ChainNet, whose
// every node internal/deploy boots from a generated chain descriptor —
// the chain servers and the entry-server coordinator each listening on an
// in-memory transport, the coordinator dialing server 0, every server
// dialing its successor, every one of those legs inside transport.Secure
// keyed by the descriptor, the CDN on the last server's cdn_addr — plus
// real clients. Only the transport under the wire protocol differs from
// a TCP deployment.
type Network struct {
	// Chain holds the servers' public keys in chain order; clients
	// onion-encrypt for these.
	Chain []PublicKey

	mem *transport.Mem
	cn  *sim.ChainNet

	mu      sync.Mutex
	clients []*Client
}

// NewInProcessNetwork assembles a full deployment inside the process.
// It refuses the noise chain.json's Validate refuses (config.CheckNoise):
// at b = 0, for one, every round adds exactly µ, which hides nothing.
func NewInProcessNetwork(opts Options) (*Network, error) {
	if opts.ConvoNoise == nil {
		opts.ConvoNoise = &NoiseParams{Mu: 500, B: 100}
	}
	if opts.DialNoise == nil {
		opts.DialNoise = &NoiseParams{Mu: 50, B: 10}
	}
	if err := config.CheckNoise("convo", opts.ConvoNoise.Mu, opts.ConvoNoise.B, 2); err != nil {
		return nil, fmt.Errorf("vuvuzela: %w", err)
	}
	if err := config.CheckNoise("dial", opts.DialNoise.Mu, opts.DialNoise.B, float64(max(1, opts.DialBuckets))); err != nil {
		return nil, fmt.Errorf("vuvuzela: %w", err)
	}

	mem := transport.NewMem()
	cn, err := sim.NewChainNet(sim.ChainNetConfig{
		Servers: deploy.Defaults.Servers,
		Net:     mem,
		Chain: mixnet.Config{
			ConvoNoise: noise.Laplace{Mu: opts.ConvoNoise.Mu, B: opts.ConvoNoise.B},
			DialNoise:  noise.Laplace{Mu: opts.DialNoise.Mu, B: opts.DialNoise.B},
		},
		Entry: coordinator.Config{DialBuckets: opts.DialBuckets},
	})
	if err != nil {
		return nil, err
	}
	return &Network{Chain: cn.Pubs, mem: mem, cn: cn}, nil
}

// NewClient connects a client with keys derived from name (deterministic,
// so examples and tests can reconnect the same identity).
func (n *Network) NewClient(name string) (*Client, error) {
	pub, priv := KeyPairFromSeed(name)
	return n.NewClientWithKeys(pub, priv)
}

// NewClientWithKeys connects a client with explicit keys.
func (n *Network) NewClientWithKeys(pub PublicKey, priv PrivateKey) (*Client, error) {
	co := n.cn.Coord
	want := co.NumClients() + 1
	c, err := client.Dial(client.Config{
		Pub: pub, Priv: priv,
		ChainPubs: n.Chain,
		Net:       n.mem,
		EntryAddr: n.cn.EntryAddr,
		CDNAddr:   n.cn.CDNAddr,
	})
	if err != nil {
		return nil, err
	}
	// Wait for the coordinator to register the connection so the next
	// round includes this client.
	deadline := time.Now().Add(2 * time.Second)
	for co.NumClients() < want {
		if time.Now().After(deadline) {
			c.Close()
			return nil, fmt.Errorf("vuvuzela: client registration timed out")
		}
		time.Sleep(time.Millisecond)
	}
	n.mu.Lock()
	n.clients = append(n.clients, c)
	n.mu.Unlock()
	return c, nil
}

// RunConvoRound executes one conversation round across all connected
// clients and returns the round number and participant count.
func (n *Network) RunConvoRound(ctx context.Context) (uint64, int, error) {
	return n.cn.Coord.RunConvoRound(ctx)
}

// RunDialRound executes one dialing round.
func (n *Network) RunDialRound(ctx context.Context) (uint64, int, error) {
	return n.cn.Coord.RunDialRound(ctx)
}

// StartRounds drives rounds continuously on the given intervals until the
// context is cancelled (0 disables a protocol's timer): the coordinator's
// own timer mode, one round of each protocol at a time.
func (n *Network) StartRounds(ctx context.Context, convoEvery, dialEvery time.Duration) {
	n.cn.Coord.Start(ctx, convoEvery, dialEvery)
}

// Close shuts the deployment down: the clients and every node of the
// deployment, the CDN with the last server.
func (n *Network) Close() {
	n.mu.Lock()
	clients := n.clients
	n.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	n.cn.Close()
}

// PrivacyGuarantee is an (ε, δ) differential-privacy guarantee; see
// paper §2.2 (Definition 1) for the semantics: any adversary observation
// is at most e^ε more likely under the user's real actions than under any
// cover story, except with probability δ.
type PrivacyGuarantee = privacy.Guarantee

// ConvoPrivacyAfter returns the cumulative (ε′, δ′) guarantee of the
// conversation protocol after k rounds under noise (mu, b) — Theorems 1
// and 2 composed with the paper's d=10⁻⁵.
func ConvoPrivacyAfter(mu, b float64, k int) PrivacyGuarantee {
	return privacy.Compose(privacy.ConvoRound(privacy.Params{Mu: mu, B: b}), k, privacy.DefaultD)
}

// DialPrivacyAfter returns the dialing protocol's cumulative guarantee
// after k dialing rounds (§6.5).
func DialPrivacyAfter(mu, b float64, k int) PrivacyGuarantee {
	return privacy.Compose(privacy.DialRound(privacy.Params{Mu: mu, B: b}), k, privacy.DefaultD)
}

// PlanConvoNoise returns the smallest noise supporting k conversation
// rounds at the target guarantee — the deployment-planning inverse of
// ConvoPrivacyAfter.
func PlanConvoNoise(k int, target PrivacyGuarantee) (NoiseParams, error) {
	p, err := privacy.NoiseForRounds(privacy.Conversation, k, target, privacy.DefaultD)
	if err != nil {
		return NoiseParams{}, err
	}
	return NoiseParams{Mu: p.Mu, B: p.B}, nil
}

// StandardTarget is the paper's usual privacy goal: ε′ = ln 2, δ′ = 10⁻⁴
// ("the adversary's confidence ... remains within 2× of what it was").
var StandardTarget = PrivacyGuarantee{Eps: privacy.Ln2, Delta: 1e-4}

// PosteriorBelief bounds an adversary's posterior belief in a suspicion
// with the given prior after observing an ε-DP system (§6.4).
func PosteriorBelief(prior, eps float64) float64 {
	return privacy.PosteriorBelief(prior, eps)
}

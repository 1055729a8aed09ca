// vuvuzela-frontend runs one stateless entry frontend: it holds client
// connections, relays the coordinator's round announcements, collects
// and validates this frontend's share of each round's submissions, and
// forwards them as one partial batch over an authenticated pipe to the
// entry server. Frontends keep no round state, so any number of them can
// run behind one entry and a crashed frontend is replaced by simply
// starting another (clients reconnect to any live one). It is wired from
// chain.json by internal/deploy.
//
// Like the entry server itself, a frontend is untrusted (paper §7):
// everything it handles is onion-sealed for the chain, so a malicious
// frontend can only deny service to its own clients.
//
// Usage:
//
//	vuvuzela-frontend -chain deploy/chain.json -index 0
package main

import (
	"flag"
	"log"

	"vuvuzela/internal/config"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/transport"
)

func main() {
	chainPath := flag.String("chain", "chain.json", "chain config file")
	index := flag.Int("index", 0, "which entry in the chain config's frontends list this process serves, on that entry's address")
	maxClients := flag.Int("max-clients", 0, "shed client connections beyond this count (0 = unlimited)")
	flag.Parse()

	chain, err := config.LoadChain(*chainPath)
	if err != nil {
		log.Fatal(err)
	}
	//vuvuzela:allow plaintexttransport substrate only: the pipe runs inside transport.Secure keyed to the chain's entry_front_key; clients are untrusted and their requests arrive onion-sealed for the chain
	tcp := transport.TCP{}
	role, err := deploy.Frontend(chain, *index, tcp, frontend.Config{MaxClients: *maxClients})
	if err != nil {
		log.Fatal(err)
	}
	ls, err := deploy.Listen(tcp, role.Addrs)
	if err != nil {
		log.Fatal(err)
	}
	_, done, err := role.Boot(nil, ls)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("vuvuzela frontend on %s → entry pipe %s", role.Addrs[0], chain.EntryFrontAddr)
	log.Fatal(<-done)
}

package main

import (
	"vuvuzela/internal/convo"
	"vuvuzela/internal/deaddrop"
)

// request is a single-server exchange request as in Figure 4: the server
// sees which user accessed which dead drop.
type request struct {
	user     string      // the requesting user, visible to the server
	deadDrop deaddrop.ID // the dead drop the user accesses, also visible
}

// server is the Figure 4 strawman: one server, fully visible access
// patterns. Even with encrypted payloads, a compromised server learns the
// (user, dead drop) mapping directly.
type server struct {
	rounds []map[deaddrop.ID][]string
}

// round processes one round of requests and records the adversary-visible
// access pattern.
func (s *server) round(reqs []request) {
	access := make(map[deaddrop.ID][]string)
	for _, r := range reqs {
		access[r.deadDrop] = append(access[r.deadDrop], r.user)
	}
	s.rounds = append(s.rounds, access)
}

// linkedPairs returns every pair of users the adversary directly observed
// sharing a dead drop in any round — the total loss of metadata privacy
// the strawman suffers (§4: "Adversary can see Alice and Bob talking").
func (s *server) linkedPairs() map[[2]string]int {
	links := make(map[[2]string]int)
	for _, round := range s.rounds {
		for _, users := range round {
			for i := 0; i < len(users); i++ {
				for j := i + 1; j < len(users); j++ {
					a, b := users[i], users[j]
					if a > b {
						a, b = b, a
					}
					links[[2]string{a, b}]++
				}
			}
		}
	}
	return links
}

// strawmanExperiment demonstrates the single-server baseline's total
// leakage: even with per-round pseudo-random dead drops (the real
// client-side derivation), the server sees the user↔drop mapping and
// learns exactly who talks to whom after a single round. eve idles with
// fresh random drops and is never falsely linked.
func strawmanExperiment(rounds int) map[[2]string]int {
	var srv server
	var abSecret, cdSecret [32]byte
	abSecret[0], cdSecret[0] = 1, 2
	for r := 1; r <= rounds; r++ {
		round := uint64(r)
		ab := convo.DeadDropID(&abSecret, round)
		cd := convo.DeadDropID(&cdSecret, round)
		var eveSecret [32]byte
		eveSecret[1] = byte(r)
		eveSecret[2] = byte(r >> 8)
		eve := convo.DeadDropID(&eveSecret, round)
		srv.round([]request{
			{user: "alice", deadDrop: ab},
			{user: "bob", deadDrop: ab},
			{user: "carol", deadDrop: cd},
			{user: "dave", deadDrop: cd},
			{user: "eve", deadDrop: eve},
		})
	}
	return srv.linkedPairs()
}

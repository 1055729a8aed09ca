// Traffic analysis: runs the attacks the paper designs against (§2.1,
// §4.2) on the real protocol stack, showing why each defense layer
// exists.
//
//  1. The strawman single server (Figure 4) leaks who-talks-to-whom
//     outright.
//  2. A mixnet WITHOUT cover traffic falls to the discard attack: an
//     adversary holding the first and last servers drops everyone except
//     Alice and Bob and reads the answer off the dead-drop histogram.
//  3. The same attack against Vuvuzela's noise gains almost nothing —
//     the differential-privacy guarantee in action.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"vuvuzela/internal/eval"
	"vuvuzela/internal/noise"
)

func main() {
	fmt.Println("1. Strawman single server (Figure 4)")
	links := strawmanExperiment(3)
	fmt.Println("   after 3 rounds the compromised server has observed:")
	for pair, count := range links {
		fmt.Printf("     %s ↔ %s in %d rounds\n", pair[0], pair[1], count)
	}
	fmt.Println("   → total metadata compromise, even though payloads are encrypted")
	fmt.Println()

	fmt.Println("2. Mixnet without noise vs the §4.2 discard attack")
	fmt.Println("   (adversary controls servers 1 and 3; drops all requests except")
	fmt.Println("   Alice's and Bob's; reads m2 = drops-accessed-twice at server 3)")
	// eval.Experiment's defaults are this attack: a 3-server chain, only
	// the target pair as clients, noise from the honest middle server.
	res, err := eval.Experiment{Rounds: 40}.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   adversary advantage: %.2f with rule \"talking if m2 ≥ %d\"\n", res.Advantage, res.Threshold)
	fmt.Printf("   (m2 was %d in every talking round, %d in every idle round)\n",
		res.Talking[0].M2, res.Idle[0].M2)
	fmt.Println("   → one round suffices to unmask the pair")
	fmt.Println()

	fmt.Println("3. The same attack against Vuvuzela (honest middle server adds")
	fmt.Println("   Laplace(µ=60, b=15) cover traffic — scaled down from the paper's")
	fmt.Println("   µ=300,000 so the demo runs in seconds)")
	res, err = eval.Experiment{
		Rounds:   80,
		Noise:    noise.Laplace{Mu: 60, B: 15},
		NoiseSrc: rand.New(rand.NewSource(42)),
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	eps := 4.0 / 15
	fmt.Printf("   adversary advantage: %.2f (best threshold m2 ≥ %d)\n", res.Advantage, res.Threshold)
	fmt.Printf("   differential privacy bounds it: per-round ε = 4/b = %.3f → max ≈ e^ε−1 = %.2f\n",
		eps, math.Exp(eps)-1)
	fmt.Println("   → with production noise (b=13,800) the per-round bound is 0.0003,")
	fmt.Println("     and the paper's composition theorem keeps a user private for")
	fmt.Println("     hundreds of thousands of rounds")
}

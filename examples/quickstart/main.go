// Quickstart: build a small platform in code, predict a few concurrent
// TCP transfers with the flow-level simulator, and print the forecasts.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

func main() {
	// A tiny platform: three hosts behind one gigabit switch.
	p := platform.New("example", platform.RoutingFull)
	as := p.Root()
	for _, name := range []string{"alice", "bob", "carol"} {
		if _, err := as.AddHost(name, 1e9); err != nil {
			log.Fatal(err)
		}
		// One shared (half-duplex) gigabit access link per host,
		// 100 us latency.
		if _, err := as.AddLink(name+"_nic", 125e6, 1e-4, platform.Shared); err != nil {
			log.Fatal(err)
		}
	}
	// Host-to-host routes: each path crosses the two access links.
	hosts := []string{"alice", "bob", "carol"}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			err := as.AddRoute(a, b, []platform.LinkUse{
				{Link: p.Link(a + "_nic"), Direction: platform.Up},
				{Link: p.Link(b + "_nic"), Direction: platform.Down},
			}, true)
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	// Compile the platform once; the snapshot answers every forecast.
	snap := p.Snapshot()

	// Predict three concurrent transfers. The two transfers leaving
	// alice compete for her access link; the third is independent.
	results, err := sim.Predict(snap, sim.DefaultConfig(), []sim.Transfer{
		{Src: "alice", Dst: "bob", Size: 1e9},
		{Src: "alice", Dst: "carol", Size: 1e9},
		{Src: "bob", Dst: "carol", Size: 250e6},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("predicted TCP completion times:")
	for _, r := range results {
		fmt.Printf("  %-5s -> %-5s  %6.0f MB  %8.3f s\n",
			r.Src, r.Dst, r.Size/1e6, r.Duration)
	}

	// The same question through the paper's fluid model, solo: note how
	// contention changed the answer above.
	solo, err := sim.Predict(snap, sim.DefaultConfig(), []sim.Transfer{
		{Src: "alice", Dst: "bob", Size: 1e9},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe alice->bob transfer alone would take %.3f s — concurrent\n", solo[0].Duration)
	fmt.Println("transfers cannot be predicted from solo measurements, which is why")
	fmt.Println("Pilgrim simulates the whole batch (paper §II).")
}

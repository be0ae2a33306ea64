package sim_test

import (
	"fmt"

	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// Predict simulates a batch of concurrent transfers on a platform — the
// operation behind every PNFS request.
func ExamplePredict() {
	p := platform.New("demo", platform.RoutingFull)
	as := p.Root()
	as.AddHost("a", 1e9)
	as.AddHost("b", 1e9)
	l, _ := as.AddLink("wire", 100e6, 0, platform.Shared)
	as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.None}}, true)

	cfg := sim.DefaultConfig()
	cfg.TCPGamma = 0 // disable the window bound for a clean closed form
	results, err := sim.Predict(p.Snapshot(), cfg, []sim.Transfer{
		{Src: "a", Dst: "b", Size: 46e6},
		{Src: "a", Dst: "b", Size: 46e6},
	})
	if err != nil {
		fmt.Println("predict:", err)
		return
	}
	// Two equal flows share 92 MB/s usable: 1 s each.
	for i, r := range results {
		fmt.Printf("transfer %d: %.2f s\n", i, r.Duration)
	}
	// Output:
	// transfer 0: 1.00 s
	// transfer 1: 1.00 s
}

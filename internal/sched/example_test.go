package sched_test

import (
	"fmt"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// ExampleSiteAware schedules Montage-50 across two regions joined by a
// 2 MB/s WAN link and prints, per scheduler, the share of dependency
// edges whose two ends ran in different regions. Montage moves
// megabytes between stages, so keeping an edge inside one region
// saves a WAN transfer: the site-aware heuristic crosses least.
func ExampleSiteAware() {
	topo := cloud.NewTopology(2, "us-east", "eu-west")
	fleet, _ := cloud.NewMultiSiteFleet("two-region", topo, []cloud.SiteSpec{
		{Site: "us-east", Types: []cloud.VMType{cloud.T2Large, cloud.T22XLarge}, Counts: []int{2, 1}},
		{Site: "eu-west", Types: []cloud.VMType{cloud.T2Large, cloud.T22XLarge}, Counts: []int{2, 1}},
	})
	w := trace.Montage50(rand.New(rand.NewSource(13)))
	cfg := sim.Config{DataTransfer: true, Seed: 13}
	for _, s := range []sim.Scheduler{&sched.Random{Seed: 13}, &sched.MCT{}, &sched.DataAware{}, &sched.SiteAware{}} {
		res, _ := sim.Run(w, fleet, s, cfg)
		edges, cross := 0, 0
		for _, a := range w.Activations() {
			for _, c := range a.Children() {
				edges++
				if fleet.VMs[res.Plan[a.ID]].Site != fleet.VMs[res.Plan[c.ID]].Site {
					cross++
				}
			}
		}
		fmt.Printf("%-9s %3.0f%% of edges cross sites\n", res.Scheduler, 100*float64(cross)/float64(edges))
	}
	// Output:
	// Random     55% of edges cross sites
	// MCT        25% of edges cross sites
	// DataAware  29% of edges cross sites
	// SiteAware  17% of edges cross sites
}

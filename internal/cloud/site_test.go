package cloud

import "testing"

func TestTopologyBasics(t *testing.T) {
	topo := NewTopology(5, "us-east", "eu-west", "ap-south")
	if !topo.HasSite("us-east") || topo.HasSite("mars") {
		t.Fatal("HasSite wrong")
	}
	// Inter-site link bandwidth.
	if got := topo.Bandwidth("us-east", "eu-west"); got != 5 {
		t.Fatalf("default bandwidth = %v", got)
	}
	// Same site: unlimited (0 sentinel).
	if got := topo.Bandwidth("us-east", "us-east"); got != 0 {
		t.Fatalf("same-site bandwidth = %v", got)
	}
}

func TestNewMultiSiteFleet(t *testing.T) {
	topo := NewTopology(5, "east", "west")
	f, err := NewMultiSiteFleet("ms", topo, []SiteSpec{
		{Site: "east", Types: []VMType{T2Micro, T22XLarge}, Counts: []int{2, 1}},
		{Site: "west", Types: []VMType{T2Micro}, Counts: []int{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 6 {
		t.Fatalf("Len = %d", f.Len())
	}
	bySite := make(map[string]int)
	for _, v := range f.VMs {
		bySite[v.Site]++
	}
	if bySite["east"] != 3 || bySite["west"] != 3 {
		t.Fatalf("VMs per site = %v", bySite)
	}
	if f.VMs[0].Site != "east" || f.VMs[5].Site != "west" {
		t.Fatalf("site assignment wrong: %v %v", f.VMs[0].Site, f.VMs[5].Site)
	}
	if f.Topology != topo {
		t.Fatal("topology not attached")
	}
	// IDs sequential across sites.
	for i, vm := range f.VMs {
		if vm.ID != i {
			t.Fatalf("VM %d has ID %d", i, vm.ID)
		}
	}
}

func TestNewMultiSiteFleetErrors(t *testing.T) {
	topo := NewTopology(5, "east")
	if _, err := NewMultiSiteFleet("ms", nil, []SiteSpec{{Site: "east"}}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := NewMultiSiteFleet("ms", topo, nil); err == nil {
		t.Fatal("no specs accepted")
	}
	if _, err := NewMultiSiteFleet("ms", topo, []SiteSpec{{Site: "ghost"}}); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := NewMultiSiteFleet("ms", topo, []SiteSpec{
		{Site: "east", Types: []VMType{T2Micro}, Counts: []int{1, 2}},
	}); err == nil {
		t.Fatal("mismatched types/counts accepted")
	}
	if _, err := NewMultiSiteFleet("ms", topo, []SiteSpec{
		{Site: "east", Types: []VMType{T2Micro}, Counts: []int{-1}},
	}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := NewMultiSiteFleet("ms", topo, []SiteSpec{
		{Site: "east", Types: []VMType{T2Micro}, Counts: []int{0}},
	}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

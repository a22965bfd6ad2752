package cloud

import "fmt"

// Topology models a multi-site cloud (the multi-site scheduling
// setting of Liu et al., cited by the paper): named sites joined by
// links of one bandwidth. Transfers within a site run at the receiving
// VM's own bandwidth; transfers between sites are limited by the
// (usually much lower) inter-site link.
type Topology struct {
	sites map[string]bool
	// DefaultBandwidth is every inter-site link's bandwidth (MB/s).
	DefaultBandwidth float64
}

// NewTopology returns a topology over the given sites with the
// inter-site bandwidth (MB/s).
func NewTopology(defaultMBps float64, sites ...string) *Topology {
	t := &Topology{
		sites:            make(map[string]bool, len(sites)),
		DefaultBandwidth: defaultMBps,
	}
	for _, s := range sites {
		t.sites[s] = true
	}
	return t
}

// HasSite reports whether the topology knows the site.
func (t *Topology) HasSite(s string) bool { return t.sites[s] }

// Bandwidth returns the inter-site bandwidth between a and b in MB/s.
// Same-site queries return 0 meaning "not limited by the topology"
// (the VM's own bandwidth applies).
func (t *Topology) Bandwidth(a, b string) float64 {
	if a == b {
		return 0
	}
	return t.DefaultBandwidth
}

// SiteSpec describes one site's share of a multi-site fleet.
type SiteSpec struct {
	Site   string
	Types  []VMType
	Counts []int
}

// NewMultiSiteFleet provisions a fleet spread over the topology's
// sites. VM IDs are assigned in spec order, as in NewFleet.
func NewMultiSiteFleet(name string, topo *Topology, specs []SiteSpec) (*Fleet, error) {
	if topo == nil {
		return nil, fmt.Errorf("cloud: multi-site fleet needs a topology")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cloud: multi-site fleet without site specs")
	}
	f := &Fleet{Name: name, Topology: topo}
	id := 0
	for _, sp := range specs {
		if !topo.HasSite(sp.Site) {
			return nil, fmt.Errorf("cloud: unknown site %q", sp.Site)
		}
		if len(sp.Types) != len(sp.Counts) {
			return nil, fmt.Errorf("cloud: site %q: %d types but %d counts",
				sp.Site, len(sp.Types), len(sp.Counts))
		}
		for i, ty := range sp.Types {
			if sp.Counts[i] < 0 {
				return nil, fmt.Errorf("cloud: site %q: negative count", sp.Site)
			}
			for j := 0; j < sp.Counts[i]; j++ {
				f.VMs = append(f.VMs, &VM{ID: id, Type: ty, Site: sp.Site})
				id++
			}
		}
	}
	if len(f.VMs) == 0 {
		return nil, fmt.Errorf("cloud: empty multi-site fleet %q", name)
	}
	return f, nil
}

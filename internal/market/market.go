// Package market models the provider economics the flat spot model
// abstracts away: a multi-provider instance catalogue (per-type
// on-demand and spot prices, boot delays, preemption-notice lead
// times), seeded price/preemption trace generation under named market
// regimes, and deterministic JSON trace playback with per-VM cost
// integration. The exec master (exec.WithMarket) replays a trace: it
// cordons, drains and remediates VMs on a preemption notice before
// the kill lands instead of waiting for lease expiry, and bills the
// run against the traced prices. The simulator has no market replay;
// learning and plan simulation stay market-free.
package market

import (
	"fmt"
	"sort"

	"reassign/internal/cloud"
)

// Offer is one instance type as sold by one provider.
type Offer struct {
	// Provider names the seller ("aws", "gcp", "azure").
	Provider string
	// Type is the cloud.VMType name this offer prices.
	Type string
	// OnDemand is the hourly on-demand price in USD.
	OnDemand float64
	// SpotBase is the long-run mean hourly spot price in USD; the
	// traced spot price random-walks around it.
	SpotBase float64
	// BootDelay is the seconds a replacement instance takes to become
	// usable after acquisition.
	BootDelay float64
	// NoticeLead is the seconds of warning between a preemption notice
	// and the kill (AWS's 2-minute notice, GCP/Azure's ~30 s).
	NoticeLead float64
}

// Catalogue is an ordered set of offers, sorted by (Provider, Type).
type Catalogue struct {
	Offers []Offer
}

// providerProfile scales the cloud package's list prices into one
// provider's economics.
type providerProfile struct {
	name       string
	priceScale float64 // on-demand multiplier over the cloud list price
	spotFrac   float64 // spot base as a fraction of on-demand
	bootDelay  float64
	noticeLead float64
}

var defaultProfiles = []providerProfile{
	{name: "aws", priceScale: 1.00, spotFrac: 0.30, bootDelay: 45, noticeLead: 120},
	{name: "azure", priceScale: 1.05, spotFrac: 0.35, bootDelay: 90, noticeLead: 30},
	{name: "gcp", priceScale: 0.95, spotFrac: 0.25, bootDelay: 60, noticeLead: 30},
}

// DefaultCatalogue prices every cloud catalogue type across three
// provider profiles: aws (list price, deep spot discount, long
// notice), azure (priciest, shallow discount, short notice) and gcp
// (cheapest on-demand, deepest discount, short notice).
func DefaultCatalogue() *Catalogue {
	c := &Catalogue{}
	for _, p := range defaultProfiles {
		for _, t := range cloud.Types() {
			od := t.PricePerHour * p.priceScale
			c.Offers = append(c.Offers, Offer{
				Provider:   p.name,
				Type:       t.Name,
				OnDemand:   od,
				SpotBase:   od * p.spotFrac,
				BootDelay:  p.bootDelay,
				NoticeLead: p.noticeLead,
			})
		}
	}
	c.sort()
	return c
}

func (c *Catalogue) sort() {
	sort.Slice(c.Offers, func(i, j int) bool {
		a, b := c.Offers[i], c.Offers[j]
		if a.Provider != b.Provider {
			return a.Provider < b.Provider
		}
		return a.Type < b.Type
	})
}

// Find returns the offer for (provider, type).
func (c *Catalogue) Find(provider, typ string) (Offer, bool) {
	for _, o := range c.Offers {
		if o.Provider == provider && o.Type == typ {
			return o, true
		}
	}
	return Offer{}, false
}

// Providers returns the sorted distinct provider names.
func (c *Catalogue) Providers() []string {
	var out []string
	for _, o := range c.Offers {
		if n := len(out); n == 0 || out[n-1] != o.Provider {
			out = append(out, o.Provider)
		}
	}
	return out
}

// Validate checks catalogue consistency.
func (c *Catalogue) Validate() error {
	for i, o := range c.Offers {
		if o.Provider == "" || o.Type == "" {
			return fmt.Errorf("market: offer %d missing provider or type", i)
		}
		if o.OnDemand <= 0 || o.SpotBase <= 0 {
			return fmt.Errorf("market: offer %s/%s has non-positive price", o.Provider, o.Type)
		}
		if o.SpotBase > o.OnDemand {
			return fmt.Errorf("market: offer %s/%s spot base %.4f above on-demand %.4f",
				o.Provider, o.Type, o.SpotBase, o.OnDemand)
		}
		if o.BootDelay < 0 || o.NoticeLead < 0 {
			return fmt.Errorf("market: offer %s/%s has negative delay", o.Provider, o.Type)
		}
	}
	return nil
}

// Regime names one market weather pattern: how hard spot prices move
// and how often spot capacity is reclaimed or hardware degrades.
type Regime struct {
	Name string
	// Volatility is the standard deviation of one price-walk step as a
	// fraction of the spot base price.
	Volatility float64
	// Reversion is the per-step pull back toward the spot base, in
	// (0, 1]; low values let excursions persist.
	Reversion float64
	// PreemptPerHour is the base preemption hazard per spot VM-hour
	// when the price sits at its base; the generator scales it with
	// the squared price/base ratio (expensive ⇒ contended ⇒ reclaimed).
	PreemptPerHour float64
	// DegradePerHour is the hazard of a node health downgrade per
	// VM-hour (any purchase model — hardware does not care).
	DegradePerHour float64
	// DegradeMean is the mean seconds a degraded node stays slow
	// before recovering.
	DegradeMean float64
	// SlowFactor multiplies task durations on a degraded node (≥ 1).
	SlowFactor float64
}

// Regimes returns the built-in market regimes, calmest first.
func Regimes() []Regime {
	return []Regime{
		{Name: "stable", Volatility: 0.05, Reversion: 0.5,
			PreemptPerHour: 0.05, DegradePerHour: 0.02, DegradeMean: 120, SlowFactor: 1.5},
		{Name: "volatile", Volatility: 0.25, Reversion: 0.3,
			PreemptPerHour: 0.6, DegradePerHour: 0.12, DegradeMean: 180, SlowFactor: 2.0},
		{Name: "hostile", Volatility: 0.45, Reversion: 0.2,
			PreemptPerHour: 2.5, DegradePerHour: 0.35, DegradeMean: 240, SlowFactor: 2.5},
	}
}

// RegimeByName looks up a built-in regime.
func RegimeByName(name string) (Regime, bool) {
	for _, r := range Regimes() {
		if r.Name == name {
			return r, true
		}
	}
	return Regime{}, false
}

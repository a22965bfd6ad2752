package market

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// Playback replays one trace deterministically: price lookups, per-VM
// billing integrals and the event schedule the simulator and exec
// master consume. A Playback is immutable after construction and safe
// for concurrent readers.
type Playback struct {
	trace *Trace
	cat   *Catalogue

	byVM   map[int]VMAssign
	series map[seriesKey]*PriceSeries
	killAt map[int]float64 // vm → traced kill time
}

type seriesKey struct{ provider, typ string }

// NewPlayback validates the trace against the catalogue and indexes it
// for replay. Every assigned (provider, type) must be priced by the
// catalogue; spot assignments must also have a traced price series.
func NewPlayback(t *Trace, cat *Catalogue) (*Playback, error) {
	if t == nil {
		return nil, fmt.Errorf("market: nil trace")
	}
	if cat == nil {
		cat = DefaultCatalogue()
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	p := &Playback{
		trace:  t,
		cat:    cat,
		byVM:   make(map[int]VMAssign, len(t.Assign)),
		series: make(map[seriesKey]*PriceSeries, len(t.Prices)),
		killAt: make(map[int]float64),
	}
	for i := range t.Prices {
		s := &t.Prices[i]
		p.series[seriesKey{s.Provider, s.Type}] = s
	}
	for _, a := range t.Assign {
		if _, ok := cat.Find(a.Provider, a.Type); !ok {
			return nil, fmt.Errorf("market: trace assigns vm %d to unpriced %s/%s", a.VM, a.Provider, a.Type)
		}
		if a.Spot {
			if _, ok := p.series[seriesKey{a.Provider, a.Type}]; !ok {
				return nil, fmt.Errorf("market: spot vm %d has no price series for %s/%s", a.VM, a.Provider, a.Type)
			}
		}
		p.byVM[a.VM] = a
	}
	for _, e := range t.Events {
		if e.Kind == EvKill {
			p.killAt[e.VM] = e.At
		}
	}
	return p, nil
}

// LoadPlayback decodes a trace file and wraps it in a Playback against
// the catalogue (nil = DefaultCatalogue).
func LoadPlayback(path string, cat *Catalogue) (*Playback, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return NewPlayback(t, cat)
}

// Trace returns the replayed trace.
func (p *Playback) Trace() *Trace { return p.trace }

// Events returns the trace's time-sorted lifecycle events.
func (p *Playback) Events() []VMEvent { return p.trace.Events }

// Horizon returns the trace horizon in virtual seconds.
func (p *Playback) Horizon() float64 { return p.trace.Horizon }

// AssignFor returns the provider assignment of a VM, if traced.
func (p *Playback) AssignFor(vmID int) (VMAssign, bool) {
	a, ok := p.byVM[vmID]
	return a, ok
}

// KillAt returns the traced kill time of a VM, or (0, false) when the
// trace never kills it.
func (p *Playback) KillAt(vmID int) (float64, bool) {
	at, ok := p.killAt[vmID]
	return at, ok
}

// Offer returns the catalogue offer behind a VM's assignment.
func (p *Playback) Offer(vmID int) (Offer, bool) {
	a, ok := p.byVM[vmID]
	if !ok {
		return Offer{}, false
	}
	return p.cat.Find(a.Provider, a.Type)
}

// PriceAt returns the hourly price of (provider, typ) at time t: the
// traced spot step price when spot is true, the offer's on-demand
// price otherwise. Unpriced pairs return 0.
func (p *Playback) PriceAt(provider, typ string, spot bool, t float64) float64 {
	if !spot {
		o, ok := p.cat.Find(provider, typ)
		if !ok {
			return 0
		}
		return o.OnDemand
	}
	s, ok := p.series[seriesKey{provider, typ}]
	if !ok {
		return 0
	}
	return stepAt(s.Points, t)
}

// CostBetween integrates the hourly price of (provider, typ) over
// [from, to] seconds: the per-second billing a traced run pays. Spot
// pairs integrate the step series; on-demand pairs bill flat.
func (p *Playback) CostBetween(provider, typ string, spot bool, from, to float64) float64 {
	if to <= from {
		return 0
	}
	if !spot {
		o, ok := p.cat.Find(provider, typ)
		if !ok {
			return 0
		}
		return (to - from) * o.OnDemand / 3600
	}
	s, ok := p.series[seriesKey{provider, typ}]
	if !ok {
		return 0
	}
	return integrateStep(s.Points, from, to) / 3600
}

// integrateStep integrates a step series over [from, to] (price ×
// seconds).
func integrateStep(points []PricePoint, from, to float64) float64 {
	if len(points) == 0 || to <= from {
		return 0
	}
	var sum float64
	// Segment i covers [points[i].At, points[i+1].At); the last segment
	// extends to +inf. Times before the first point use its price.
	for i := range points {
		segStart := points[i].At
		if i == 0 {
			segStart = math.Inf(-1)
		}
		segEnd := math.Inf(1)
		if i+1 < len(points) {
			segEnd = points[i+1].At
		}
		lo := math.Max(from, segStart)
		hi := math.Min(to, segEnd)
		if hi > lo {
			sum += (hi - lo) * points[i].Price
		}
	}
	return sum
}

// VMCost bills one traced VM over [from, to]: the billing window is
// clipped at the VM's traced kill time (a preempted instance stops
// billing when it dies). Untraced VMs cost 0 — callers bill
// replacements through ReplacementCost.
func (p *Playback) VMCost(vmID int, from, to float64) float64 {
	a, ok := p.byVM[vmID]
	if !ok {
		return 0
	}
	if kill, dead := p.killAt[vmID]; dead && kill < to {
		to = kill
	}
	return p.CostBetween(a.Provider, a.Type, a.Spot, from, to)
}

// ReplacementCost bills an on-demand replacement of the given offer
// over [from, to] — remediation buys reliability at the fixed price.
func (p *Playback) ReplacementCost(provider, typ string, from, to float64) float64 {
	return p.CostBetween(provider, typ, false, from, to)
}

// ProviderCost is one provider's share of a run's bill.
type ProviderCost struct {
	Provider string
	Cost     float64
}

// CostReport aggregates a run's market bill.
type CostReport struct {
	// Total is the run's dollar cost over the traced prices.
	Total float64
	// ByProvider splits Total per provider, sorted by provider name.
	ByProvider []ProviderCost
}

// Add accrues cost against a provider.
func (r *CostReport) Add(provider string, cost float64) {
	r.Total += cost
	for i := range r.ByProvider {
		if r.ByProvider[i].Provider == provider {
			r.ByProvider[i].Cost += cost
			return
		}
	}
	r.ByProvider = append(r.ByProvider, ProviderCost{Provider: provider, Cost: cost})
	sort.Slice(r.ByProvider, func(i, j int) bool {
		return r.ByProvider[i].Provider < r.ByProvider[j].Provider
	})
}

// FleetCost bills every traced VM from time 0 to end (each clipped at
// its kill time), in VM-id order so float accumulation is
// deterministic.
func (p *Playback) FleetCost(end float64) CostReport {
	var rep CostReport
	for _, a := range p.trace.Assign {
		c := p.VMCost(a.VM, 0, end)
		if c != 0 {
			rep.Add(a.Provider, c)
		}
	}
	return rep
}

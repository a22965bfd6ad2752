package market

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"reassign/internal/cloud"
	"reassign/internal/randsrc"
)

// TraceVersion is the trace file schema version this package writes.
const TraceVersion = 1

// EventKind classifies one VM lifecycle event in a trace.
type EventKind string

const (
	// EvNotice is a preemption notice: the VM will be killed at KillAt.
	EvNotice EventKind = "notice"
	// EvKill is the preemption itself; it always follows a notice for
	// the same VM, NoticeLead seconds later.
	EvKill EventKind = "kill"
	// EvDegrade downgrades node health: tasks run Slow times slower.
	EvDegrade EventKind = "degrade"
	// EvRecover restores a degraded node to full speed.
	EvRecover EventKind = "recover"
)

// PricePoint is one step of a spot price series: Price holds from At
// until the next point.
type PricePoint struct {
	At    float64 `json:"at"`
	Price float64 `json:"price"`
}

// PriceSeries is the traced spot price of one (provider, type) pair.
type PriceSeries struct {
	Provider string       `json:"provider"`
	Type     string       `json:"type"`
	Points   []PricePoint `json:"points"`
}

// VMAssign binds one fleet VM to a provider and purchase model.
type VMAssign struct {
	VM       int    `json:"vm"`
	Provider string `json:"provider"`
	Type     string `json:"type"`
	// Spot marks the VM preemptible; on-demand VMs are never killed
	// and bill at the offer's on-demand rate.
	Spot bool `json:"spot"`
}

// VMEvent is one scheduled lifecycle event for a traced VM.
type VMEvent struct {
	VM   int       `json:"vm"`
	Kind EventKind `json:"kind"`
	At   float64   `json:"at"`
	// KillAt is set on notice events: when the kill will land.
	KillAt float64 `json:"killAt,omitempty"`
	// Slow is set on degrade events: the task-duration multiplier.
	Slow float64 `json:"slow,omitempty"`
}

// Trace is one generated market history: per-pair price series plus
// per-VM assignments and lifecycle events, replayable bit-identically.
type Trace struct {
	Version int     `json:"version"`
	Regime  string  `json:"regime"`
	Seed    int64   `json:"seed"`
	Horizon float64 `json:"horizon"`
	// PriceStep is the seconds between price-walk steps.
	PriceStep float64       `json:"priceStep"`
	Prices    []PriceSeries `json:"prices"`
	Assign    []VMAssign    `json:"assign"`
	Events    []VMEvent     `json:"events"`
}

// priceSteps is the number of price-walk steps per series.
const priceSteps = 64

// Generate draws a seeded market trace for the fleet under the regime:
// every VM is assigned a provider round-robin (by VM index over the
// catalogue's sorted providers), the lowest-ID VM is kept on-demand so
// a fully-spot fleet cannot be stranded, spot prices random-walk with
// mean reversion around each offer's SpotBase, preemptions are drawn
// from a price-modulated hazard (notice at t, kill NoticeLead later),
// and node health degradations slow VMs of any purchase model.
//
// The rng is split deterministically: prices, then per-VM lifecycles
// in VM order, so the trace is bit-identical for a fixed seed
// regardless of fleet iteration details.
func Generate(cat *Catalogue, fleet *cloud.Fleet, regime Regime, seed int64, horizon float64) (*Trace, error) {
	if cat == nil {
		return nil, fmt.Errorf("market: nil catalogue")
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if fleet == nil || fleet.Len() == 0 {
		return nil, fmt.Errorf("market: empty fleet")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("market: horizon must be positive, got %g", horizon)
	}
	if regime.SlowFactor < 1 {
		return nil, fmt.Errorf("market: regime %q SlowFactor %g below 1", regime.Name, regime.SlowFactor)
	}
	providers := cat.Providers()
	if len(providers) == 0 {
		return nil, fmt.Errorf("market: catalogue has no providers")
	}
	tr := &Trace{
		Version:   TraceVersion,
		Regime:    regime.Name,
		Seed:      seed,
		Horizon:   horizon,
		PriceStep: horizon / priceSteps,
		Assign:    make([]VMAssign, 0, fleet.Len()),
	}

	// Assignments: round-robin providers over VMs in fleet order; the
	// lowest-ID VM stays on-demand.
	minID := fleet.VMs[0].ID
	for _, vm := range fleet.VMs {
		if vm.ID < minID {
			minID = vm.ID
		}
	}
	type pair struct{ provider, typ string }
	seen := make(map[pair]bool)
	var pairs []pair
	for i, vm := range fleet.VMs {
		p := providers[i%len(providers)]
		if _, ok := cat.Find(p, vm.Type.Name); !ok {
			return nil, fmt.Errorf("market: no offer for %s/%s", p, vm.Type.Name)
		}
		tr.Assign = append(tr.Assign, VMAssign{
			VM: vm.ID, Provider: p, Type: vm.Type.Name, Spot: vm.ID != minID,
		})
		if k := (pair{p, vm.Type.Name}); !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
	}
	sort.Slice(tr.Assign, func(i, j int) bool { return tr.Assign[i].VM < tr.Assign[j].VM })
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].provider != pairs[j].provider {
			return pairs[i].provider < pairs[j].provider
		}
		return pairs[i].typ < pairs[j].typ
	})

	tr.Prices = make([]PriceSeries, 0, len(pairs))

	// Price walks: one rng stream per pair, split up front so adding a
	// pair never reshuffles another pair's draws. The stream seeds are
	// the first draws of the trace seed's generator, which is then
	// reseeded for each stream in turn: the same draws as a fresh
	// generator per stream, without allocating a 607-word state each.
	rng := rand.New(randsrc.New(seed))
	streams := make([]int64, len(pairs)+len(tr.Assign))
	for i := range streams {
		streams[i] = rng.Int63()
	}
	nextStream := func() {
		rng.Seed(streams[0])
		streams = streams[1:]
	}
	for _, k := range pairs {
		o, _ := cat.Find(k.provider, k.typ)
		nextStream()
		ps := PriceSeries{Provider: k.provider, Type: k.typ, Points: make([]PricePoint, 0, priceSteps)}
		price := o.SpotBase
		for s := 0; s < priceSteps; s++ {
			at := float64(s) * tr.PriceStep
			if s > 0 {
				step := rng.NormFloat64() * regime.Volatility * o.SpotBase
				price += step + regime.Reversion*(o.SpotBase-price)
				// Spot never beats 10% of base and never exceeds
				// on-demand (nobody pays more than the fixed price).
				price = math.Min(math.Max(price, 0.1*o.SpotBase), o.OnDemand)
			}
			ps.Points = append(ps.Points, PricePoint{At: round6(at), Price: round6(price)})
		}
		tr.Prices = append(tr.Prices, ps)
	}

	// Per-VM lifecycle: preemption (spot only, price-modulated hazard
	// by thinning) and health degradation, one rng stream per VM.
	for _, as := range tr.Assign {
		nextStream()
		o, _ := cat.Find(as.Provider, as.Type)
		if as.Spot && regime.PreemptPerHour > 0 {
			// Thinning against the max hazard: price ≤ on-demand, so
			// the ratio (price/base)² is bounded by (od/base)².
			maxRatio := (o.OnDemand / o.SpotBase) * (o.OnDemand / o.SpotBase)
			maxHazard := regime.PreemptPerHour / 3600 * maxRatio
			t := 0.0
			for {
				t += rng.ExpFloat64() / maxHazard
				if t >= horizon {
					break
				}
				price := priceAt(tr.Prices, as.Provider, as.Type, t)
				ratio := price / o.SpotBase
				if rng.Float64() < ratio*ratio/maxRatio {
					notice := round6(t)
					kill := round6(t + o.NoticeLead)
					tr.Events = append(tr.Events,
						VMEvent{VM: as.VM, Kind: EvNotice, At: notice, KillAt: kill},
						VMEvent{VM: as.VM, Kind: EvKill, At: kill})
					break // a VM is preempted at most once and never returns
				}
			}
		}
		if regime.DegradePerHour > 0 {
			at := rng.ExpFloat64() / (regime.DegradePerHour / 3600)
			if at < horizon {
				dur := rng.ExpFloat64() * regime.DegradeMean
				tr.Events = append(tr.Events,
					VMEvent{VM: as.VM, Kind: EvDegrade, At: round6(at), Slow: round6(regime.SlowFactor)})
				if end := at + dur; end < horizon {
					tr.Events = append(tr.Events, VMEvent{VM: as.VM, Kind: EvRecover, At: round6(end)})
				}
			}
		}
	}
	sortEvents(tr.Events)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("market: generated invalid trace: %w", err)
	}
	return tr, nil
}

// round6 snaps a time or price to microsecond/micro-dollar precision
// so traced values survive a JSON round trip bit-identically and read
// cleanly in the file.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// eventRank orders same-time events deterministically: a kill lands
// after any notice/degrade at the same instant.
func eventRank(k EventKind) int {
	switch k {
	case EvNotice:
		return 0
	case EvDegrade:
		return 1
	case EvRecover:
		return 2
	case EvKill:
		return 3
	}
	return 4
}

func sortEvents(evs []VMEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if ra, rb := eventRank(a.Kind), eventRank(b.Kind); ra != rb {
			return ra < rb
		}
		return a.VM < b.VM
	})
}

// priceAt evaluates the step series for (provider, typ) at time t.
func priceAt(series []PriceSeries, provider, typ string, t float64) float64 {
	for i := range series {
		s := &series[i]
		if s.Provider != provider || s.Type != typ {
			continue
		}
		return stepAt(s.Points, t)
	}
	return 0
}

// stepAt evaluates a step function: the price at or before t (the
// first price for t before the first point).
func stepAt(points []PricePoint, t float64) float64 {
	if len(points) == 0 {
		return 0
	}
	i := sort.Search(len(points), func(i int) bool { return points[i].At > t })
	if i == 0 {
		return points[0].Price
	}
	return points[i-1].Price
}

// Encode writes the trace as indented JSON. Encoding is deterministic:
// the same Trace always yields the same bytes.
func (t *Trace) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("market: encode: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode reads and validates a trace.
func Decode(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("market: decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks the structural invariants replay depends on: sane
// header fields, price series sorted by (provider, type) with
// time-sorted non-negative points, assignments sorted by unique VM id,
// events time-sorted with every kill announced by a matching notice
// exactly NoticeLead-style ahead (KillAt == kill time), and degrade
// factors ≥ 1.
func (t *Trace) Validate() error {
	if t.Version != TraceVersion {
		return fmt.Errorf("market: unsupported trace version %d (want %d)", t.Version, TraceVersion)
	}
	if t.Horizon <= 0 || math.IsNaN(t.Horizon) || math.IsInf(t.Horizon, 0) {
		return fmt.Errorf("market: horizon must be positive and finite, got %g", t.Horizon)
	}
	if t.PriceStep < 0 || math.IsNaN(t.PriceStep) || math.IsInf(t.PriceStep, 0) {
		return fmt.Errorf("market: negative or non-finite price step %g", t.PriceStep)
	}
	for i, s := range t.Prices {
		if s.Provider == "" || s.Type == "" {
			return fmt.Errorf("market: price series %d missing provider or type", i)
		}
		if i > 0 {
			p := t.Prices[i-1]
			if p.Provider > s.Provider || (p.Provider == s.Provider && p.Type >= s.Type) {
				return fmt.Errorf("market: price series not sorted by (provider, type) at %d", i)
			}
		}
		if len(s.Points) == 0 {
			return fmt.Errorf("market: price series %s/%s has no points", s.Provider, s.Type)
		}
		for j, pt := range s.Points {
			if pt.Price < 0 || math.IsNaN(pt.Price) || math.IsInf(pt.Price, 0) {
				return fmt.Errorf("market: %s/%s point %d has bad price %g", s.Provider, s.Type, j, pt.Price)
			}
			if math.IsNaN(pt.At) || math.IsInf(pt.At, 0) || pt.At < 0 {
				return fmt.Errorf("market: %s/%s point %d has bad time %g", s.Provider, s.Type, j, pt.At)
			}
			if j > 0 && s.Points[j-1].At >= pt.At {
				return fmt.Errorf("market: %s/%s points not strictly time-sorted at %d", s.Provider, s.Type, j)
			}
		}
	}
	for i, a := range t.Assign {
		if a.Provider == "" || a.Type == "" {
			return fmt.Errorf("market: assignment %d missing provider or type", i)
		}
		if i > 0 && t.Assign[i-1].VM >= a.VM {
			return fmt.Errorf("market: assignments not sorted by unique VM id at %d", i)
		}
	}
	killAt := make(map[int]float64) // vm → announced kill time
	killed := make(map[int]bool)
	for i, e := range t.Events {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("market: event %d has bad time %g", i, e.At)
		}
		if i > 0 {
			p := t.Events[i-1]
			if p.At > e.At {
				return fmt.Errorf("market: events not time-sorted at %d", i)
			}
			if p.At == e.At {
				if ra, rb := eventRank(p.Kind), eventRank(e.Kind); ra > rb ||
					(ra == rb && p.VM >= e.VM) {
					return fmt.Errorf("market: same-time events not in (rank, vm) order at %d", i)
				}
			}
		}
		switch e.Kind {
		case EvNotice:
			if e.KillAt < e.At || math.IsNaN(e.KillAt) || math.IsInf(e.KillAt, 0) {
				return fmt.Errorf("market: vm %d notice at %g with kill at %g", e.VM, e.At, e.KillAt)
			}
			if _, dup := killAt[e.VM]; dup || killed[e.VM] {
				return fmt.Errorf("market: vm %d noticed twice", e.VM)
			}
			killAt[e.VM] = e.KillAt
		case EvKill:
			at, ok := killAt[e.VM]
			if !ok {
				return fmt.Errorf("market: vm %d killed at %g without a notice", e.VM, e.At)
			}
			if at != e.At {
				return fmt.Errorf("market: vm %d killed at %g but notice announced %g", e.VM, e.At, at)
			}
			delete(killAt, e.VM)
			killed[e.VM] = true
		case EvDegrade:
			if e.Slow < 1 || math.IsNaN(e.Slow) || math.IsInf(e.Slow, 0) {
				return fmt.Errorf("market: vm %d degrade with factor %g below 1", e.VM, e.Slow)
			}
		case EvRecover:
			// No payload to check.
		default:
			return fmt.Errorf("market: event %d has unknown kind %q", i, e.Kind)
		}
	}
	for vm, at := range killAt {
		if at <= t.Horizon {
			return fmt.Errorf("market: vm %d notice announces kill at %g but no kill event follows", vm, at)
		}
	}
	return nil
}

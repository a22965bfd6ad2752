// Package loadgen generates seeded multi-tenant arrival traces and
// replays them against competing scheduling policies in identical
// lanes — the open-system evaluation mode. The closed-system studies
// (package expt) measure one workflow at a time; here tenants submit
// streams of workflows over a virtual-time horizon, and the question
// is how policies trade off per-tenant fairness, SLA attainment, and
// throughput under contention.
//
// Everything is deterministic for a fixed seed: trace generation
// draws from per-tenant rngs split off one master seed, lane replay
// is a single-threaded event loop, and reports format through fixed
// %.5f rendering — repeated runs are bit-identical.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"reassign/internal/api"
	"reassign/internal/randsrc"
)

// Arrival shapes. Poisson is a constant-rate process; Burst
// alternates on/off phases with the on-phase rate scaled to preserve
// the mean; Diurnal modulates the rate sinusoidally.
const (
	ShapePoisson = "poisson"
	ShapeBurst   = "burst"
	ShapeDiurnal = "diurnal"
)

// TenantSpec describes one tenant's arrival stream: a rate, a shape,
// a workflow-size mix, and a deadline profile.
type TenantSpec struct {
	// Name labels the tenant; required, unique within a trace.
	Name string `json:"name"`
	// Rate is the mean arrival rate in workflows per virtual second.
	Rate float64 `json:"rate"`
	// Shape is ShapePoisson (default), ShapeBurst or ShapeDiurnal.
	Shape string `json:"shape,omitempty"`
	// Workflows is the tenant's size mix; each arrival picks one
	// uniformly. Required, at least one spec.
	Workflows []api.WorkflowSpec `json:"workflows"`
	// DeadlineFactor, when positive, attaches a deadline to every
	// arrival: factor × the workflow's reference service time (its
	// greedy-immediate makespan on the lane fleet, shared across all
	// lanes so every policy faces the same SLA). Zero disables
	// deadlines for this tenant.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`

	// Period overrides the shape's modulation period (burst on/off
	// cycle, diurnal day length). Zero picks Horizon/4 for burst and
	// Horizon/2 for diurnal.
	Period float64 `json:"period,omitempty"`
	// Duty is the burst on-phase fraction (default 0.25).
	Duty float64 `json:"duty,omitempty"`
	// Amplitude is the diurnal modulation depth in [0,1) (default 0.8).
	Amplitude float64 `json:"amplitude,omitempty"`
}

// TraceConfig drives Generate.
type TraceConfig struct {
	// Seed is the master seed; every random choice in the trace
	// derives from it.
	Seed int64 `json:"seed"`
	// Horizon is the arrival window in virtual seconds.
	Horizon float64 `json:"horizon"`
	// Tenants are the competing streams.
	Tenants []TenantSpec `json:"tenants"`
}

// Arrival is one workflow submission in the trace.
type Arrival struct {
	// ID is unique within the trace ("<tenant>-<seq>").
	ID string `json:"id"`
	// Tenant names the submitting stream.
	Tenant string `json:"tenant"`
	// At is the arrival time in virtual seconds.
	At float64 `json:"at"`
	// Workflow indexes Trace.Workflows.
	Workflow int `json:"workflow"`
	// DeadlineFactor is the tenant's SLA multiplier (0 = no deadline);
	// lanes resolve it against the workflow's reference service time.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// Seed drives per-job randomness (learning) during replay.
	Seed int64 `json:"seed"`
}

// Trace is a generated arrival schedule: a workflow catalog plus the
// time-ordered arrivals referencing it. Traces serialise to JSON for
// replay by other processes (cmd/schedload -trace).
type Trace struct {
	Seed      int64              `json:"seed"`
	Horizon   float64            `json:"horizon"`
	Workflows []api.WorkflowSpec `json:"workflows"`
	Arrivals  []Arrival          `json:"arrivals"`
}

// Tenants returns the distinct tenant names in sorted order, which
// reports rely on for stable output.
func (t *Trace) Tenants() []string {
	seen := map[string]bool{}
	var names []string
	for _, a := range t.Arrivals {
		if !seen[a.Tenant] {
			seen[a.Tenant] = true
			names = append(names, a.Tenant)
		}
	}
	sort.Strings(names)
	return names
}

// DefaultTenants builds a representative n-tenant mix for studies and
// load tools: tenants cycle through the three shapes, odd tenants
// carry deadlines, and each submits synthetic Montage workflows of
// about nodes activations with a distinct structure seed.
func DefaultTenants(n int, rate float64, nodes int) []TenantSpec {
	shapes := []string{ShapePoisson, ShapeBurst, ShapeDiurnal}
	out := make([]TenantSpec, n)
	for i := range out {
		t := TenantSpec{
			Name:  fmt.Sprintf("tenant%d", i),
			Rate:  rate,
			Shape: shapes[i%len(shapes)],
			Workflows: []api.WorkflowSpec{
				{Synthetic: &api.SyntheticSpec{Family: "montage", Nodes: nodes, Seed: int64(i)}},
			},
		}
		if i%2 == 1 {
			t.DeadlineFactor = 3
		}
		out[i] = t
	}
	return out
}

// Generate builds the arrival trace: each tenant's stream is drawn
// from its own rng (split deterministically off the master seed) by
// thinning a homogeneous Poisson process at the shape's peak rate,
// then the streams are merged in time order. Fixed seed → identical
// trace, independent of tenant count or ordering changes elsewhere.
func Generate(cfg TraceConfig) (*Trace, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("loadgen: horizon must be positive, got %v", cfg.Horizon)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: need at least one tenant")
	}
	seen := map[string]bool{}
	for i, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("loadgen: tenant %d has no name", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("loadgen: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Rate <= 0 {
			return nil, fmt.Errorf("loadgen: tenant %q rate must be positive, got %v", t.Name, t.Rate)
		}
		switch t.Shape {
		case "", ShapePoisson, ShapeBurst, ShapeDiurnal:
		default:
			return nil, fmt.Errorf("loadgen: tenant %q has unknown shape %q", t.Name, t.Shape)
		}
		if t.Amplitude < 0 || t.Amplitude >= 1 {
			return nil, fmt.Errorf("loadgen: tenant %q amplitude must be in [0,1), got %v", t.Name, t.Amplitude)
		}
		if len(t.Workflows) == 0 {
			return nil, fmt.Errorf("loadgen: tenant %q has no workflows", t.Name)
		}
		for j, spec := range t.Workflows {
			if _, err := spec.Build(); err != nil {
				return nil, fmt.Errorf("loadgen: tenant %q workflow %d: %w", t.Name, j, err)
			}
		}
		if t.DeadlineFactor < 0 {
			return nil, fmt.Errorf("loadgen: tenant %q deadline factor must be non-negative, got %v", t.Name, t.DeadlineFactor)
		}
	}

	tr := &Trace{Seed: cfg.Seed, Horizon: cfg.Horizon}
	// Catalog: dedupe workflow specs by canonical JSON so repeated
	// mixes share one entry (and lanes build each workflow once).
	catalog := map[string]int{}
	indexOf := func(spec api.WorkflowSpec) int {
		key, _ := json.Marshal(spec)
		if idx, ok := catalog[string(key)]; ok {
			return idx
		}
		idx := len(tr.Workflows)
		catalog[string(key)] = idx
		tr.Workflows = append(tr.Workflows, spec)
		return idx
	}

	master := rand.New(randsrc.New(cfg.Seed))
	for _, t := range cfg.Tenants {
		// One rng per tenant, derived from the master in spec order:
		// editing one tenant's parameters never perturbs another's
		// stream.
		rng := rand.New(randsrc.New(master.Int63()))
		peak := t.peakRate()
		seq := 0
		// Thinning (Lewis–Shedler): draw a homogeneous process at the
		// peak rate, keep each point with probability rate(t)/peak.
		for at := rng.ExpFloat64() / peak; at < cfg.Horizon; at += rng.ExpFloat64() / peak {
			if rng.Float64()*peak > t.rateAt(at, cfg.Horizon) {
				continue
			}
			spec := t.Workflows[rng.Intn(len(t.Workflows))]
			tr.Arrivals = append(tr.Arrivals, Arrival{
				ID:             fmt.Sprintf("%s-%04d", t.Name, seq),
				Tenant:         t.Name,
				At:             at,
				Workflow:       indexOf(spec),
				DeadlineFactor: t.DeadlineFactor,
				Seed:           rng.Int63(),
			})
			seq++
		}
	}
	// Merge streams in time order; equal times break by ID so the
	// order is total and reproducible.
	sort.SliceStable(tr.Arrivals, func(i, j int) bool {
		a, b := tr.Arrivals[i], tr.Arrivals[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.ID < b.ID
	})
	return tr, nil
}

// peakRate is the thinning envelope: the maximum instantaneous rate
// the shape can reach.
func (t TenantSpec) peakRate() float64 {
	switch t.Shape {
	case ShapeBurst:
		return t.Rate / t.duty()
	case ShapeDiurnal:
		return t.Rate * (1 + t.amplitude())
	default:
		return t.Rate
	}
}

// rateAt is the instantaneous arrival rate at virtual time at.
func (t TenantSpec) rateAt(at, horizon float64) float64 {
	switch t.Shape {
	case ShapeBurst:
		period := t.Period
		if period <= 0 {
			period = horizon / 4
		}
		duty := t.duty()
		if math.Mod(at, period) < duty*period {
			return t.Rate / duty // on-phase, mean-preserving
		}
		return 0
	case ShapeDiurnal:
		period := t.Period
		if period <= 0 {
			period = horizon / 2
		}
		return t.Rate * (1 + t.amplitude()*math.Sin(2*math.Pi*at/period))
	default:
		return t.Rate
	}
}

func (t TenantSpec) duty() float64 {
	if t.Duty > 0 && t.Duty <= 1 {
		return t.Duty
	}
	return 0.25
}

func (t TenantSpec) amplitude() float64 {
	if t.Amplitude > 0 {
		return t.Amplitude
	}
	return 0.8
}

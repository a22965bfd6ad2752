package sim

import (
	"fmt"

	"reassign/internal/cloud"
)

// Autoscale adds cloud elasticity to a simulation — the property the
// paper's introduction singles out ("increasing and/or decreasing the
// number of VMs on demand"). The policy watches the ready queue at
// every scheduling cycle: sustained backlog acquires a VM (after a
// boot delay), idle surplus VMs are released once they have been
// empty for the cooldown period. Released VMs never come back; new
// VMs get fresh IDs after the initial fleet.
type Autoscale struct {
	// Type is the instance type acquired on scale-out.
	Type cloud.VMType
	// MaxVMs bounds the total fleet size (initial + acquired); zero
	// disables scale-out.
	MaxVMs int
	// QueuePerFreeSlot triggers scale-out when
	// len(ready) > QueuePerFreeSlot × free slots (default 2).
	QueuePerFreeSlot float64
	// BootDelay is the provisioning latency of an acquired VM in
	// virtual seconds.
	BootDelay float64
	// IdleTimeout releases an acquired VM after it has been
	// continuously idle this long (0 keeps acquired VMs forever).
	// Only acquired VMs are released; the initial fleet is pinned.
	IdleTimeout float64
	// Cooldown is the minimum time between two scale-out decisions
	// (default 0: every cycle may scale).
	Cooldown float64
}

// validate checks the policy.
func (a *Autoscale) validate() error {
	if a.MaxVMs < 0 {
		return fmt.Errorf("sim: autoscale MaxVMs negative")
	}
	if a.BootDelay < 0 || a.IdleTimeout < 0 || a.Cooldown < 0 {
		return fmt.Errorf("sim: autoscale delays negative")
	}
	if a.MaxVMs > 0 && a.Type.VCPUs <= 0 {
		return fmt.Errorf("sim: autoscale type %q has no vCPUs", a.Type.Name)
	}
	return nil
}

// scaler is the per-run autoscaler state.
type scaler struct {
	policy    *Autoscale
	lastScale float64
	acquired  int
	released  int // acquired VMs retired for idleness
	// nextID is the ID the next acquired VM receives: one past the
	// highest ID in the fleet so far. Allocating len(g.vms) instead
	// would collide with hand-built fleets whose IDs have gaps.
	nextID int
	// isAcquired marks VMs added by scale-out. Only acquired VMs may
	// be retired; the initial fleet is pinned whatever its IDs are.
	isAcquired map[*VMState]bool
	// dead holds VMs that can never work again — idle-retired or
	// spot-revoked. They do not count against MaxVMs.
	dead        map[*VMState]bool
	idleSince   map[*VMState]float64
	acquireTime map[*VMState]float64 // boot completion per acquired VM
	releaseTime map[*VMState]float64
}

func newScaler(p *Autoscale, maxID int) *scaler {
	return &scaler{
		policy:      p,
		lastScale:   -1e18,
		nextID:      maxID + 1,
		isAcquired:  make(map[*VMState]bool),
		dead:        make(map[*VMState]bool),
		idleSince:   make(map[*VMState]float64),
		acquireTime: make(map[*VMState]float64),
		releaseTime: make(map[*VMState]float64),
	}
}

// vmRevoked tells the scaler a spot revocation killed v: the corpse
// stops counting against MaxVMs (so scale-out can replace it), stops
// being tracked for idleness, and — if it was acquired — stops
// billing at the revocation instant.
func (sc *scaler) vmRevoked(v *VMState, now float64) {
	if sc.dead[v] {
		return
	}
	sc.dead[v] = true
	delete(sc.idleSince, v)
	if sc.isAcquired[v] {
		if _, ok := sc.releaseTime[v]; !ok {
			sc.releaseTime[v] = now
		}
	}
}

// step runs one autoscaling decision. It may append booted-later VMs
// to the engine and retire idle acquired ones.
func (g *Engine) autoscaleStep() {
	sc := g.scaler
	if sc == nil {
		return
	}
	p := sc.policy
	now := g.sim.Now()

	// Scale in: retire acquired VMs idle past the timeout.
	if p.IdleTimeout > 0 {
		for _, v := range g.vms {
			if sc.dead[v] || !v.booted {
				continue
			}
			if v.busy > 0 {
				delete(sc.idleSince, v)
				continue
			}
			since, tracked := sc.idleSince[v]
			if !tracked {
				sc.idleSince[v] = now
				continue
			}
			if sc.isAcquired[v] && now-since >= p.IdleTimeout {
				sc.dead[v] = true
				sc.released++
				sc.releaseTime[v] = now
				delete(sc.idleSince, v)
				g.setBooted(v, false) // never idle again
				if g.hook != nil {
					g.hook.VMRetired(now, v)
				}
			}
		}
	}

	// Scale out: sustained backlog and room to grow. Dead VMs (retired
	// or spot-revoked) no longer occupy capacity.
	if p.MaxVMs <= 0 || len(g.vms)-len(sc.dead) >= p.MaxVMs {
		return
	}
	if now-sc.lastScale < p.Cooldown {
		return
	}
	freeSlots := 0
	for _, v := range g.vms {
		if v.booted {
			freeSlots += v.FreeSlots()
		}
	}
	threshold := p.QueuePerFreeSlot
	if threshold <= 0 {
		threshold = 2
	}
	if float64(len(g.ready)) <= threshold*float64(freeSlots) {
		return
	}
	sc.lastScale = now
	sc.acquired++
	vm := &cloud.VM{ID: sc.nextID, Type: p.Type}
	sc.nextID++
	if len(g.fleet.VMs) > 0 {
		vm.Site = g.fleet.VMs[0].Site
	}
	v := &VMState{VM: vm, Slots: vm.Type.VCPUs} // not booted yet
	sc.isAcquired[v] = true
	g.vms = append(g.vms, v)
	g.env.vms = g.vms
	sc.acquireTime[v] = now + p.BootDelay
	if g.hook != nil {
		g.hook.VMAdded(now, v)
	}
	g.sim.At(now+p.BootDelay, func() {
		if !sc.dead[v] {
			g.setBooted(v, true)
			g.postCycle()
		}
	})
	// Acquired VMs are spot instances too when a spot policy is active.
	g.scheduleSpotRevocation(v, now+p.BootDelay)
}

// ElasticityReport summarises autoscaling activity in a Result.
type ElasticityReport struct {
	Acquired int // VMs added beyond the initial fleet
	Released int // acquired VMs retired for idleness
	PeakVMs  int // maximum concurrently usable VMs
}

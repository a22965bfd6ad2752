// Package cloud models the IaaS substrate the paper schedules onto:
// VM types with heterogeneous capacity (Amazon t2.micro and
// t2.2xlarge in the evaluation), fleets of provisioned VMs, on-demand
// pricing, and the dynamic-environment effects the paper argues are
// hard to model analytically — multi-tenant performance fluctuation,
// burst-credit throttling and live-migration pauses.
package cloud

import (
	"fmt"
	"math"
	"math/rand"
)

// VMType describes an instance type in the catalogue.
type VMType struct {
	Name         string
	VCPUs        int
	RAMMB        int
	Speed        float64 // relative per-core speed; 1.0 = reference core
	PricePerHour float64 // USD, us-east-1 on-demand
	NetMBps      float64 // sustained network bandwidth, MB/s
}

// Catalogue of the types used in the paper plus neighbours for
// larger sweeps. Speeds are relative: the t2 family shares a core
// speed, so a t2.2xlarge wins by running 8 activations at once, and
// (in the fluctuating executor) by not exhausting burst credits.
var (
	T2Micro = VMType{
		Name: "t2.micro", VCPUs: 1, RAMMB: 1024,
		Speed: 1.0, PricePerHour: 0.0116, NetMBps: 8,
	}
	T2Small = VMType{
		Name: "t2.small", VCPUs: 1, RAMMB: 2048,
		Speed: 1.0, PricePerHour: 0.023, NetMBps: 16,
	}
	T2Large = VMType{
		Name: "t2.large", VCPUs: 2, RAMMB: 8192,
		Speed: 1.0, PricePerHour: 0.0928, NetMBps: 64,
	}
	T2XLarge = VMType{
		Name: "t2.xlarge", VCPUs: 4, RAMMB: 16384,
		Speed: 1.0, PricePerHour: 0.1856, NetMBps: 94,
	}
	T22XLarge = VMType{
		Name: "t2.2xlarge", VCPUs: 8, RAMMB: 16384,
		Speed: 1.0, PricePerHour: 0.3712, NetMBps: 125,
	}
)

// Types returns the full catalogue, smallest first.
func Types() []VMType {
	return []VMType{T2Micro, T2Small, T2Large, T2XLarge, T22XLarge}
}

// TypeByName looks up a catalogue type.
func TypeByName(name string) (VMType, bool) {
	for _, t := range Types() {
		if t.Name == name {
			return t, true
		}
	}
	return VMType{}, false
}

// VM is one provisioned virtual machine.
type VM struct {
	ID   int
	Type VMType
	// Site names the region/zone hosting the VM (empty in single-site
	// fleets).
	Site string
}

// String implements fmt.Stringer.
func (v *VM) String() string { return fmt.Sprintf("vm%d(%s)", v.ID, v.Type.Name) }

// Fleet is an ordered set of provisioned VMs. Order matters: the
// paper's Table V identifies VMs by index (0-7 = t2.micro, 8+ =
// t2.2xlarge for the 16-vCPU fleet).
type Fleet struct {
	Name string
	VMs  []*VM
	// Topology, when non-nil, makes the fleet multi-site: inter-site
	// transfers are limited by its link bandwidths.
	Topology *Topology
}

// NewFleet provisions count[i] VMs of types[i], assigning IDs in
// order.
func NewFleet(name string, types []VMType, counts []int) (*Fleet, error) {
	if len(types) != len(counts) {
		return nil, fmt.Errorf("cloud: %d types but %d counts", len(types), len(counts))
	}
	f := &Fleet{Name: name}
	id := 0
	for i, t := range types {
		if counts[i] < 0 {
			return nil, fmt.Errorf("cloud: negative count for %s", t.Name)
		}
		for j := 0; j < counts[i]; j++ {
			f.VMs = append(f.VMs, &VM{ID: id, Type: t})
			id++
		}
	}
	if len(f.VMs) == 0 {
		return nil, fmt.Errorf("cloud: empty fleet %q", name)
	}
	return f, nil
}

// MustFleet is NewFleet that panics on error.
func MustFleet(name string, types []VMType, counts []int) *Fleet {
	f, err := NewFleet(name, types, counts)
	if err != nil {
		panic(err)
	}
	return f
}

// Len returns the number of VMs.
func (f *Fleet) Len() int { return len(f.VMs) }

// VCPUs returns the total vCPU count.
func (f *Fleet) VCPUs() int {
	n := 0
	for _, v := range f.VMs {
		n += v.Type.VCPUs
	}
	return n
}

// PricePerHour returns the fleet's aggregate on-demand price.
func (f *Fleet) PricePerHour() float64 {
	var p float64
	for _, v := range f.VMs {
		p += v.Type.PricePerHour
	}
	return p
}

// CountByType returns VM counts keyed by type name.
func (f *Fleet) CountByType() map[string]int {
	out := make(map[string]int)
	for _, v := range f.VMs {
		out[v.Type.Name]++
	}
	return out
}

// Cost returns the price of running the whole fleet for the given
// number of seconds under hourly billing (partial hours rounded up,
// the AWS model of the paper's era).
func (f *Fleet) Cost(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	hours := math.Ceil(seconds / 3600)
	return hours * f.PricePerHour()
}

// FleetTable1 builds one of the paper's Table I configurations by
// total vCPU count: 16 (8 micro + 1 2xlarge), 32 (8 + 3) or
// 64 (8 + 7).
func FleetTable1(vcpus int) (*Fleet, error) {
	var big int
	switch vcpus {
	case 16:
		big = 1
	case 32:
		big = 3
	case 64:
		big = 7
	default:
		return nil, fmt.Errorf("cloud: no Table I configuration with %d vCPUs", vcpus)
	}
	return NewFleet(fmt.Sprintf("table1-%dvcpu", vcpus),
		[]VMType{T2Micro, T22XLarge}, []int{8, big})
}

// Table1VCPUs lists the vCPU totals of the paper's Table I rows.
func Table1VCPUs() []int { return []int{16, 32, 64} }

// FleetScaled builds a fleet scaled beyond the paper's Table I by
// replicating its base 16-vCPU unit (8 t2.micro + 1 t2.2xlarge) once
// per 16 vCPUs — a 1024-vCPU fleet holds 512 micro + 64 2xlarge VMs,
// the many-VM regime of the large-DAG benchmark tier. vcpus must be
// a positive multiple of 16.
func FleetScaled(vcpus int) (*Fleet, error) {
	if vcpus <= 0 || vcpus%16 != 0 {
		return nil, fmt.Errorf("cloud: scaled fleet needs a positive multiple of 16 vCPUs, got %d", vcpus)
	}
	blocks := vcpus / 16
	return NewFleet(fmt.Sprintf("scaled-%dvcpu", vcpus),
		[]VMType{T2Micro, T22XLarge}, []int{8 * blocks, blocks})
}

// FluctuationModel perturbs nominal task runtimes the way a busy
// public cloud does. It is used by the "real execution" engine
// (stage 2), NOT by the learning simulator — the mismatch between the
// two is exactly what the paper argues RL adapts to.
type FluctuationModel struct {
	// Noise is the coefficient of variation of multiplicative
	// log-normal noise applied to every execution (multi-tenancy).
	Noise float64
	// MicroThrottleProb is the probability that a burstable (1-vCPU
	// micro) instance has exhausted CPU credits for a given task, in
	// which case the task runs ThrottleFactor times slower.
	MicroThrottleProb float64
	ThrottleFactor    float64
	// MigrationProb is the per-task probability of a live-migration
	// pause of MigrationPause seconds being added.
	MigrationProb  float64
	MigrationPause float64
}

// DefaultFluctuation returns the model used by the Table IV
// reproduction: mild global noise, significant throttling risk on
// micro instances, rare migration stalls.
func DefaultFluctuation() FluctuationModel {
	return FluctuationModel{
		Noise:             0.08,
		MicroThrottleProb: 0.20,
		ThrottleFactor:    2.2,
		MigrationProb:     0.02,
		MigrationPause:    15,
	}
}

// Apply returns the observed duration of a task with the given
// nominal duration on the given VM.
func (m FluctuationModel) Apply(rng *rand.Rand, vm *VM, nominal float64) float64 {
	d := nominal
	if m.Noise > 0 {
		// Log-normal multiplicative noise with median 1.
		d *= math.Exp(rng.NormFloat64() * m.Noise)
	}
	if vm.Type.VCPUs == 1 && m.MicroThrottleProb > 0 && rng.Float64() < m.MicroThrottleProb {
		d *= m.ThrottleFactor
	}
	if m.MigrationProb > 0 && rng.Float64() < m.MigrationProb {
		d += m.MigrationPause
	}
	if d < 0 {
		d = 0
	}
	return d
}

package cloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCatalogue(t *testing.T) {
	types := Types()
	if len(types) != 5 {
		t.Fatalf("catalogue has %d types", len(types))
	}
	for _, ty := range types {
		if ty.VCPUs < 1 || ty.Speed <= 0 || ty.PricePerHour <= 0 || ty.RAMMB <= 0 {
			t.Errorf("bad type %+v", ty)
		}
	}
	if T2Micro.VCPUs != 1 || T2Micro.RAMMB != 1024 {
		t.Errorf("t2.micro = %+v, want 1 vCPU / 1 GB per the paper", T2Micro)
	}
	if T22XLarge.VCPUs != 8 || T22XLarge.RAMMB != 16384 {
		t.Errorf("t2.2xlarge = %+v, want 8 vCPU / 16 GB per the paper", T22XLarge)
	}
}

func TestTypeByName(t *testing.T) {
	ty, ok := TypeByName("t2.micro")
	if !ok || ty.Name != "t2.micro" {
		t.Fatalf("TypeByName(t2.micro) = %v, %v", ty, ok)
	}
	if _, ok := TypeByName("m5.enormous"); ok {
		t.Fatal("unknown type found")
	}
}

func TestNewFleet(t *testing.T) {
	f, err := NewFleet("f", []VMType{T2Micro, T22XLarge}, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	// IDs sequential, micro first.
	for i, vm := range f.VMs {
		if vm.ID != i {
			t.Fatalf("VM %d has ID %d", i, vm.ID)
		}
	}
	if f.VMs[0].Type.Name != "t2.micro" || f.VMs[2].Type.Name != "t2.2xlarge" {
		t.Fatalf("ordering wrong: %v", f.VMs)
	}
	if got := f.VCPUs(); got != 10 {
		t.Fatalf("VCPUs = %d, want 10", got)
	}
	counts := f.CountByType()
	if counts["t2.micro"] != 2 || counts["t2.2xlarge"] != 1 {
		t.Fatalf("CountByType = %v", counts)
	}
}

func TestNewFleetErrors(t *testing.T) {
	if _, err := NewFleet("f", []VMType{T2Micro}, []int{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewFleet("f", []VMType{T2Micro}, []int{-1}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := NewFleet("f", []VMType{T2Micro}, []int{0}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestFleetTable1(t *testing.T) {
	want := map[int]struct{ vms, big int }{
		16: {9, 1},
		32: {11, 3},
		64: {15, 7},
	}
	for vcpus, exp := range want {
		f, err := FleetTable1(vcpus)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != exp.vms {
			t.Errorf("%d vCPUs: %d VMs, want %d (Table I)", vcpus, f.Len(), exp.vms)
		}
		if got := f.VCPUs(); got != vcpus {
			t.Errorf("%d vCPUs: fleet reports %d", vcpus, got)
		}
		counts := f.CountByType()
		if counts["t2.micro"] != 8 || counts["t2.2xlarge"] != exp.big {
			t.Errorf("%d vCPUs: counts = %v", vcpus, counts)
		}
	}
	if _, err := FleetTable1(48); err == nil {
		t.Fatal("unknown Table I config accepted")
	}
	if got := Table1VCPUs(); len(got) != 3 || got[0] != 16 || got[2] != 64 {
		t.Fatalf("Table1VCPUs = %v", got)
	}
}

func TestPriceAndCost(t *testing.T) {
	f := MustFleet("f", []VMType{T2Micro}, []int{2})
	wantHourly := 2 * 0.0116
	if got := f.PricePerHour(); math.Abs(got-wantHourly) > 1e-12 {
		t.Fatalf("PricePerHour = %v, want %v", got, wantHourly)
	}
	if got := f.Cost(0); got != 0 {
		t.Fatalf("Cost(0) = %v", got)
	}
	// 1 second bills a full hour.
	if got := f.Cost(1); math.Abs(got-wantHourly) > 1e-12 {
		t.Fatalf("Cost(1) = %v, want %v", got, wantHourly)
	}
	// 3601 seconds bills two hours.
	if got := f.Cost(3601); math.Abs(got-2*wantHourly) > 1e-12 {
		t.Fatalf("Cost(3601) = %v, want %v", got, 2*wantHourly)
	}
}

func TestMustFleetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFleet did not panic")
		}
	}()
	MustFleet("bad", []VMType{T2Micro}, []int{0})
}

func TestFluctuationZeroIsIdentity(t *testing.T) {
	m := FluctuationModel{}
	rng := rand.New(rand.NewSource(1))
	vm := &VM{ID: 0, Type: T2Micro}
	for i := 0; i < 100; i++ {
		if got := m.Apply(rng, vm, 10); got != 10 {
			t.Fatalf("zero model changed duration: %v", got)
		}
	}
}

func TestFluctuationThrottlesOnlyMicro(t *testing.T) {
	m := FluctuationModel{MicroThrottleProb: 1.0, ThrottleFactor: 3}
	rng := rand.New(rand.NewSource(2))
	micro := &VM{ID: 0, Type: T2Micro}
	big := &VM{ID: 1, Type: T22XLarge}
	if got := m.Apply(rng, micro, 10); got != 30 {
		t.Fatalf("micro not throttled: %v", got)
	}
	if got := m.Apply(rng, big, 10); got != 10 {
		t.Fatalf("2xlarge throttled: %v", got)
	}
}

func TestFluctuationMigrationPause(t *testing.T) {
	m := FluctuationModel{MigrationProb: 1.0, MigrationPause: 7}
	rng := rand.New(rand.NewSource(3))
	vm := &VM{ID: 0, Type: T22XLarge}
	if got := m.Apply(rng, vm, 10); got != 17 {
		t.Fatalf("migration pause not applied: %v", got)
	}
}

func TestDefaultFluctuationMeanBias(t *testing.T) {
	// On micro instances the default model must inflate mean runtime
	// noticeably more than on 2xlarge — that asymmetry drives the
	// Table IV crossover.
	m := DefaultFluctuation()
	rng := rand.New(rand.NewSource(4))
	micro := &VM{ID: 0, Type: T2Micro}
	big := &VM{ID: 1, Type: T22XLarge}
	var sumM, sumB float64
	const n = 20000
	for i := 0; i < n; i++ {
		sumM += m.Apply(rng, micro, 10)
		sumB += m.Apply(rng, big, 10)
	}
	meanM, meanB := sumM/n, sumB/n
	if meanM < meanB*1.15 {
		t.Fatalf("micro mean %v not clearly above 2xlarge mean %v", meanM, meanB)
	}
	if meanB < 10 || meanB > 12 {
		t.Fatalf("2xlarge mean %v drifted from nominal 10", meanB)
	}
}

// Property: fluctuation never returns a negative duration and is
// monotone in the nominal duration on average.
func TestPropertyFluctuationNonNegative(t *testing.T) {
	f := func(seed int64, rawNom uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := DefaultFluctuation()
		vm := &VM{ID: 0, Type: T2Micro}
		nom := float64(rawNom) / 100
		for i := 0; i < 50; i++ {
			if m.Apply(rng, vm, nom) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fleet cost is non-decreasing in duration.
func TestPropertyCostMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		fl := MustFleet("f", []VMType{T2Micro, T22XLarge}, []int{3, 2})
		x, y := float64(a%1_000_000), float64(b%1_000_000)
		if x > y {
			x, y = y, x
		}
		return fl.Cost(x) <= fl.Cost(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVMString(t *testing.T) {
	vm := &VM{ID: 3, Type: T22XLarge}
	if got := vm.String(); got != "vm3(t2.2xlarge)" {
		t.Fatalf("String = %q", got)
	}
}

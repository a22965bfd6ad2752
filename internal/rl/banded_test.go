package rl

import (
	"math/rand"
	"testing"
)

// TestBandedEquivalenceZeroInit drives identical operation sequences
// against the map reference, NewTable's layout and explicit band
// sizes with deterministic (zero) initialisation, across band sizes
// from one row per band to larger-than-the-table.
func TestBandedEquivalenceZeroInit(t *testing.T) {
	const numTasks, numVMs = 12, 5
	for _, shift := range []uint{0, 1, 2, 5} {
		for seed := int64(0); seed < 5; seed++ {
			m := newMapTable(rand.New(rand.NewSource(99)), 0)
			bd := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(99)), 0)
			driveTables(t, m, bd, numTasks, numVMs, seed)

			d := NewTable(numTasks, numVMs, rand.New(rand.NewSource(99)), 0)
			bd2 := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(99)), 0)
			driveTables(t, d, bd2, numTasks, numVMs, seed)
		}
	}
}

// TestBandedEquivalenceRandomInit is the contract the Learner relies
// on: with the same init seed and the same access sequence, lazily
// materialised random entries are bit-identical whatever the band
// size, and equal to the map reference's.
func TestBandedEquivalenceRandomInit(t *testing.T) {
	const numTasks, numVMs = 9, 4
	for _, shift := range []uint{0, 1, 2, 4} {
		for seed := int64(0); seed < 5; seed++ {
			m := newMapTable(rand.New(rand.NewSource(7*seed+1)), 1.0)
			bd := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(7*seed+1)), 1.0)
			driveTables(t, m, bd, numTasks, numVMs, seed)

			d := NewTable(numTasks, numVMs, rand.New(rand.NewSource(7*seed+1)), 1.0)
			bd2 := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(7*seed+1)), 1.0)
			driveTables(t, d, bd2, numTasks, numVMs, seed)
		}
	}
}

// TestBandedPropertyRandomShapes drives the equivalence property
// across randomly drawn table shapes and band sizes, including
// single-row, single-column and non-power-of-two rectangles.
func TestBandedPropertyRandomShapes(t *testing.T) {
	shapes := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 25; iter++ {
		numTasks := 1 + shapes.Intn(300)
		numVMs := 1 + shapes.Intn(60)
		shift := uint(shapes.Intn(7))
		initSpan := float64(shapes.Intn(2)) // zero- and random-init
		seed := shapes.Int63()

		m := newMapTable(rand.New(rand.NewSource(seed)), initSpan)
		bd := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(seed)), initSpan)
		driveTables(t, m, bd, numTasks, numVMs, int64(iter))

		d := NewTable(numTasks, numVMs, rand.New(rand.NewSource(seed)), initSpan)
		bd2 := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(seed)), initSpan)
		driveTables(t, d, bd2, numTasks, numVMs, int64(iter))
	}
}

// TestBandedTieBreakingLargeVMSet pins Best/ArgmaxRect tie-breaking
// on a large VM axis: with all-equal values the lowest VM ID must win
// on every backing, and duplicated maxima must resolve to the first
// (task-major, ascending-VM) occurrence.
func TestBandedTieBreakingLargeVMSet(t *testing.T) {
	const numTasks, numVMs = 64, 2048
	vms := make([]int, numVMs)
	for i := range vms {
		vms[i] = i
	}
	tasks := make([]int, numTasks)
	for i := range tasks {
		tasks[i] = i
	}
	backings := map[string]*Table{
		"one-band": newRect(numTasks, numVMs, 6, rand.New(rand.NewSource(3)), 0),
		"banded":   NewTable(numTasks, numVMs, rand.New(rand.NewSource(3)), 0),
	}
	if n := len(backings["banded"].bands); n < 2 {
		t.Fatalf("NewTable(%d, %d) built %d band(s), want > 1", numTasks, numVMs, n)
	}
	for name, tab := range backings {
		// Zero-init: every value ties at 0, so the lowest VM ID wins.
		if vm, v := tab.Best(2, vms); vm != 0 || v != 0 {
			t.Fatalf("%s: all-ties Best = (%d, %v), want (0, 0)", name, vm, v)
		}
		// Equal maxima planted at scattered cells: the task-major scan
		// must return the first occurrence — and keep doing so after
		// the row-max cache kicks in on repeated full-span queries.
		tab.Set(Key{Task: 5, VM: 1900}, 7)
		tab.Set(Key{Task: 5, VM: 300}, 7)
		tab.Set(Key{Task: 6, VM: 2}, 7)
		for pass := 0; pass < 3; pass++ {
			k, v := tab.ArgmaxRect(tasks, vms)
			if k != (Key{Task: 5, VM: 300}) || v != 7 {
				t.Fatalf("%s pass %d: ArgmaxRect = (%+v, %v), want ({5 300}, 7)", name, pass, k, v)
			}
			if vm, v := tab.Best(5, vms); vm != 300 || v != 7 {
				t.Fatalf("%s pass %d: Best(5) = (%d, %v), want (300, 7)", name, pass, vm, v)
			}
		}
		// Lower the cached argmax cell below the runner-up: the next
		// full-span query must fall back to the true maximum.
		tab.Set(Key{Task: 5, VM: 300}, -1)
		if k, v := tab.ArgmaxRect(tasks, vms); k != (Key{Task: 5, VM: 1900}) || v != 7 {
			t.Fatalf("%s: post-invalidation ArgmaxRect = (%+v, %v), want ({5 1900}, 7)", name, k, v)
		}
		// Raise a smaller column to the same maximum: first-wins order
		// must move the argmax down.
		tab.Set(Key{Task: 5, VM: 10}, 7)
		if k, _ := tab.ArgmaxRect(tasks, vms); k != (Key{Task: 5, VM: 10}) {
			t.Fatalf("%s: equal-at-lower-column ArgmaxRect = %+v, want {5 10}", name, k)
		}
	}
}

// TestBandedLazyAllocation checks the bands' reason to exist: a
// 10k × 1000 table that only touches a few rows allocates only those
// rows' bands.
func TestBandedLazyAllocation(t *testing.T) {
	tab := NewTable(10000, 1000, rand.New(rand.NewSource(1)), 1.0)
	if len(tab.bands) < 2 {
		t.Fatal("10000x1000 table is not banded")
	}
	touched := func() int {
		n := 0
		for i := range tab.bands {
			if tab.bands[i].vals != nil {
				n++
			}
		}
		return n
	}
	if got := touched(); got != 0 {
		t.Fatalf("fresh banded table has %d allocated bands, want 0", got)
	}
	tab.Value(Key{Task: 0, VM: 0})
	tab.Value(Key{Task: 9999, VM: 999})
	if got := touched(); got != 2 {
		t.Fatalf("after touching first and last row: %d allocated bands, want 2", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	// Per-band memory stays near the cache-resident target.
	if rowBytes := tab.bandRows * tab.numVMs * 8; rowBytes > bandTargetBytes {
		t.Fatalf("band holds %d bytes of values, over the %d target", rowBytes, bandTargetBytes)
	}
}

// TestBandedCopyAverage checks the ensemble operations preserve the
// band layout and the contents.
func TestBandedCopyAverage(t *testing.T) {
	a := NewTable(2000, 40, rand.New(rand.NewSource(4)), 1.0)
	if len(a.bands) < 2 {
		t.Fatal("2000x40 table is not banded")
	}
	for i := 0; i < 60; i++ {
		a.TDUpdate(Key{Task: i * 33, VM: i % 40}, 0.5, float64(i), 0.9, 1)
	}
	cp := a.Copy(rand.New(rand.NewSource(5)))
	if cp.bandShift != a.bandShift || len(cp.bands) != len(a.bands) {
		t.Fatalf("copy has %d bands of %d rows, original %d of %d", len(cp.bands), cp.bandRows, len(a.bands), a.bandRows)
	}
	wa, wc := a.Snapshot(), cp.Snapshot()
	if len(wa) != len(wc) {
		t.Fatalf("copy Snapshot: %d entries vs %d", len(wc), len(wa))
	}
	for i := range wa {
		if wa[i] != wc[i] {
			t.Fatalf("copy entry %d: %+v vs %+v", i, wc[i], wa[i])
		}
	}
	cp.Set(Key{Task: 99, VM: 39}, 5)
	if _, ok := a.Peek(Key{Task: 99, VM: 39}); ok {
		t.Fatal("write to copy leaked into the original")
	}

	b := a.Copy(rand.New(rand.NewSource(6)))
	b.Set(Key{Task: 0, VM: 0}, 100)
	avg := Average(rand.New(rand.NewSource(7)), a, b)
	if avg.bandShift != a.bandShift || len(avg.bands) != len(a.bands) {
		t.Fatalf("Average has %d bands of %d rows, inputs %d of %d", len(avg.bands), avg.bandRows, len(a.bands), a.bandRows)
	}
	va, vb := a.Value(Key{Task: 0, VM: 0}), 100.0
	if got, want := avg.Value(Key{Task: 0, VM: 0}), (va+vb)/2; got != want {
		t.Fatalf("Average value = %v, want %v", got, want)
	}
}

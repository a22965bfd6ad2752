package rl

import (
	"bytes"
	"math/rand"
	"testing"
)

// driveTables applies the same mixed access sequence (TDUpdate, Best,
// MaxOver, MaxRect, Set, Value) to both tables, failing on the first
// divergent return value.
func driveTables(t *testing.T, a, b qtable, numTasks, numVMs int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vms := make([]int, numVMs)
	for i := range vms {
		vms[i] = i
	}
	tasks := make([]int, numTasks)
	for i := range tasks {
		tasks[i] = i
	}
	keys := make([]Key, 0, 8)
	for step := 0; step < 500; step++ {
		k := Key{Task: rng.Intn(numTasks), VM: rng.Intn(numVMs)}
		switch rng.Intn(5) {
		case 0:
			r, g, n := rng.Float64(), rng.Float64(), rng.Float64()
			if va, vb := a.TDUpdate(k, 0.3, r, g, n), b.TDUpdate(k, 0.3, r, g, n); va != vb {
				t.Fatalf("step %d: TDUpdate(%v) = %v vs %v", step, k, va, vb)
			}
		case 1:
			vma, qa := a.Best(k.Task, vms)
			vmb, qb := b.Best(k.Task, vms)
			if vma != vmb || qa != qb {
				t.Fatalf("step %d: Best(%d) = (%d, %v) vs (%d, %v)", step, k.Task, vma, qa, vmb, qb)
			}
		case 2:
			keys = keys[:0]
			for i := 0; i < 4; i++ {
				keys = append(keys, Key{Task: rng.Intn(numTasks), VM: rng.Intn(numVMs)})
			}
			if va, vb := a.MaxOver(keys), b.MaxOver(keys); va != vb {
				t.Fatalf("step %d: MaxOver = %v vs %v", step, va, vb)
			}
		case 3:
			lo := rng.Intn(numTasks)
			if va, vb := a.MaxRect(tasks[lo:], vms), b.MaxRect(tasks[lo:], vms); va != vb {
				t.Fatalf("step %d: MaxRect = %v vs %v", step, va, vb)
			}
		case 4:
			v := rng.NormFloat64()
			a.Set(k, v)
			b.Set(k, v)
		}
		if va, vb := a.Value(k), b.Value(k); va != vb {
			t.Fatalf("step %d: Value(%v) = %v vs %v", step, k, va, vb)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("Snapshot lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("Snapshot[%d]: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestMapDenseEquivalenceZeroInit drives identical operation
// sequences against the map reference and a table with deterministic
// (zero) initialisation: every returned value and the final snapshots
// must match exactly.
func TestMapDenseEquivalenceZeroInit(t *testing.T) {
	const numTasks, numVMs = 12, 5
	for seed := int64(0); seed < 10; seed++ {
		m := newMapTable(rand.New(rand.NewSource(99)), 0)
		d := NewTable(numTasks, numVMs, rand.New(rand.NewSource(99)), 0)
		driveTables(t, m, d, numTasks, numVMs, seed)
	}
}

// TestMapDenseEquivalenceRandomInit is the stronger contract the
// Learner relies on: with the same init seed and the same access
// sequence, lazily materialised random entries are bit-identical to
// the map reference's.
func TestMapDenseEquivalenceRandomInit(t *testing.T) {
	const numTasks, numVMs = 9, 4
	for seed := int64(0); seed < 10; seed++ {
		m := newMapTable(rand.New(rand.NewSource(7*seed+1)), 1.0)
		d := NewTable(numTasks, numVMs, rand.New(rand.NewSource(7*seed+1)), 1.0)
		driveTables(t, m, d, numTasks, numVMs, seed)
	}
}

// TestDenseOverflowKeys checks keys outside the rectangle (VM IDs past
// the fleet, as provenance of replacement VMs names) spill into the
// overflow map and behave like entries inside it.
func TestDenseOverflowKeys(t *testing.T) {
	d := NewTable(3, 2, rand.New(rand.NewSource(1)), 0)
	out := Key{Task: 10, VM: 7} // outside 3×2
	if v := d.Value(out); v != 0 {
		t.Fatalf("overflow Value = %v, want 0", v)
	}
	d.Set(out, 4.5)
	if v, ok := d.Peek(out); !ok || v != 4.5 {
		t.Fatalf("overflow Peek = (%v, %v), want (4.5, true)", v, ok)
	}
	if got := d.TDUpdate(out, 0.5, 1, 0, 0); got != 4.5+0.5*(1-4.5) {
		t.Fatalf("overflow TDUpdate = %v", got)
	}
	neg := Key{Task: -1, VM: 0}
	d.Set(neg, -2)
	if v := d.Value(neg); v != -2 {
		t.Fatalf("negative-key Value = %v, want -2", v)
	}
	// Overflow entries appear in Len and Snapshot alongside dense ones.
	d.Set(Key{Task: 1, VM: 1}, 9)
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

// TestSaveLoadAcrossBackings persists a table (including an overflow
// entry) and loads it into tables of the same, a smaller and a larger
// shape. Each must hold the saved entries, whichever of them land in
// overflow, and then behave like the map reference holding them.
func TestSaveLoadAcrossBackings(t *testing.T) {
	src := NewTable(4, 3, rand.New(rand.NewSource(5)), 1.0)
	for task := 0; task < 4; task++ {
		for vm := 0; vm < 3; vm++ {
			src.TDUpdate(Key{Task: task, VM: vm}, 0.4, float64(task*vm), 0.9, 0.5)
		}
	}
	src.Set(Key{Task: 9, VM: 9}, 1.25) // overflow

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	want := src.Snapshot()
	for _, shape := range [][2]int{{4, 3}, {2, 2}, {16, 16}} {
		into := NewTable(shape[0], shape[1], rand.New(rand.NewSource(3)), 1.0)
		if err := into.Load(bytes.NewReader(saved)); err != nil {
			t.Fatal(err)
		}
		got := into.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%v: %d entries, want %d", shape, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: entry %d = %+v, want %+v", shape, i, got[i], want[i])
			}
		}
		m := newMapTable(rand.New(rand.NewSource(3)), 1.0)
		for _, e := range want {
			m.Set(e.Key, e.Value)
		}
		driveTables(t, m, into, 12, 12, 1)
	}
}

// TestDenseTablePanicsOnBadDims pins the constructor contract.
func TestDenseTablePanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {3, 0}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			NewTable(dims[0], dims[1], nil, 0)
		}()
	}
}

// qtableBench drives a TD-style workload — the per-completion access
// pattern of core.Scheduler — against the given table.
func qtableBench(b *testing.B, mk func() *Table, numTasks, numVMs int) {
	vms := make([]int, numVMs)
	for i := range vms {
		vms[i] = i
	}
	tasks := make([]int, numTasks)
	for i := range tasks {
		tasks[i] = i
	}
	tab := mk()
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{Task: rng.Intn(numTasks), VM: rng.Intn(numVMs)}
		next := tab.MaxRect(tasks, vms)
		tab.TDUpdate(k, 0.5, 1.0, 0.9, next)
		tab.Best(k.Task, vms)
	}
}

func BenchmarkQTableDense(b *testing.B) {
	qtableBench(b, func() *Table { return NewTable(50, 16, rand.New(rand.NewSource(1)), 1.0) }, 50, 16)
}

package rl

import (
	"math"
	"math/rand"
	"testing"
)

// TestCopyIsIndependent copies a small table ("dense": one band) and a
// large, sparsely touched one ("sparse": most bands never allocated),
// each with an overflow entry.
func TestCopyIsIndependent(t *testing.T) {
	for _, tc := range []struct {
		name           string
		numTasks, nVMs int
	}{{"dense", 10, 4}, {"sparse", 2000, 40}} {
		t.Run(tc.name, func(t *testing.T) {
			orig := NewTable(tc.numTasks, tc.nVMs, rand.New(rand.NewSource(1)), 1.0)
			orig.Set(Key{Task: 1, VM: 2}, 3.5)
			orig.Set(Key{Task: 4000, VM: 99}, -1.0) // overflow
			cp := orig.Copy(rand.New(rand.NewSource(2)))
			if cp.Len() != orig.Len() {
				t.Fatalf("copy has %d entries, original %d", cp.Len(), orig.Len())
			}
			if got := cp.Value(Key{Task: 1, VM: 2}); got != 3.5 {
				t.Fatalf("copied value = %v, want 3.5", got)
			}
			if got, ok := cp.Peek(Key{Task: 4000, VM: 99}); !ok || got != -1 {
				t.Fatalf("copied overflow value = (%v, %v), want (-1, true)", got, ok)
			}
			// Writes to the copy must not touch the original and vice
			// versa — including lazily materialised entries.
			cp.Set(Key{Task: 1, VM: 2}, 99)
			if got := orig.Value(Key{Task: 1, VM: 2}); got != 3.5 {
				t.Fatalf("original mutated through copy: %v", got)
			}
			orig.Set(Key{Task: 2, VM: 0}, 7)
			if _, ok := cp.Peek(Key{Task: 2, VM: 0}); ok {
				t.Fatal("copy sees entry materialised on the original")
			}
			if nt, nv := cp.Dims(); nt != tc.numTasks || nv != tc.nVMs {
				t.Fatalf("copy dims = %dx%d, want %dx%d", nt, nv, tc.numTasks, tc.nVMs)
			}
			allocated := func(tab *Table) (n int) {
				for i := range tab.bands {
					if tab.bands[i].vals != nil {
						n++
					}
				}
				return n
			}
			if a, c := allocated(orig), allocated(cp); a != c || len(orig.bands) != len(cp.bands) {
				t.Fatalf("copy allocated %d of %d bands, original %d of %d", c, len(cp.bands), a, len(orig.bands))
			}
		})
	}
}

func TestAverageArithmetic(t *testing.T) {
	a := NewTable(4, 3, rand.New(rand.NewSource(1)), 0)
	b := NewTable(4, 3, rand.New(rand.NewSource(2)), 0)
	k1 := Key{Task: 0, VM: 0}
	k2 := Key{Task: 1, VM: 2}
	k3 := Key{Task: 3, VM: 1}
	a.Set(k1, 2)
	b.Set(k1, 4)
	a.Set(k2, 10) // only a materialised k2
	b.Set(k3, -6) // only b materialised k3

	avg := Average(rand.New(rand.NewSource(3)), a, b)
	if nt, nv := avg.Dims(); nt != 4 || nv != 3 {
		t.Fatalf("average dims = %dx%d, want 4x3", nt, nv)
	}
	if got, _ := avg.Peek(k1); got != 3 {
		t.Fatalf("avg[k1] = %v, want 3 (mean of 2 and 4)", got)
	}
	// Entries materialised by only one table average over that table
	// alone, not dragged toward zero by the other.
	if got, _ := avg.Peek(k2); got != 10 {
		t.Fatalf("avg[k2] = %v, want 10", got)
	}
	if got, _ := avg.Peek(k3); got != -6 {
		t.Fatalf("avg[k3] = %v, want -6", got)
	}
	if avg.Len() != 3 {
		t.Fatalf("avg has %d entries, want 3", avg.Len())
	}
}

// TestAverageMixedShapesKeepsFirstRectangle averages tables of two
// shapes: the result takes the first table's rectangle, and entries
// outside it land in overflow without changing what the average holds.
func TestAverageMixedShapesKeepsFirstRectangle(t *testing.T) {
	a := NewTable(4, 3, rand.New(rand.NewSource(1)), 0)
	b := NewTable(8, 5, rand.New(rand.NewSource(2)), 0)
	k, out := Key{Task: 2, VM: 1}, Key{Task: 7, VM: 4}
	a.Set(k, 1)
	b.Set(k, 5)
	b.Set(out, 2)
	avg := Average(nil, a, b)
	if nt, nv := avg.Dims(); nt != 4 || nv != 3 {
		t.Fatalf("average dims = %dx%d, want tables[0]'s 4x3", nt, nv)
	}
	want := []Entry{{Key: k, Value: 3}, {Key: out, Value: 2}}
	got := avg.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Key != want[i].Key || math.Abs(got[i].Value-want[i].Value) > 1e-15 {
			t.Fatalf("Snapshot = %+v, want %+v", got, want)
		}
	}
}

func TestAveragePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Average() of no tables should panic")
		}
	}()
	Average(nil)
}

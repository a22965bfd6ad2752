package rl

import (
	"math/rand"
	"testing"
)

// FuzzBandIndex probes the band index math (locate / allocBand /
// bitset offsets) with arbitrary table shapes and band shifts,
// checking every read and write against the map reference, including
// keys outside the rectangle (overflow map).
func FuzzBandIndex(f *testing.F) {
	f.Add(uint16(12), uint8(5), uint8(2), int64(1))
	f.Add(uint16(1), uint8(1), uint8(0), int64(2))
	f.Add(uint16(1000), uint8(200), uint8(6), int64(3))
	f.Add(uint16(64), uint8(63), uint8(7), int64(4))
	f.Fuzz(func(t *testing.T, rawTasks uint16, rawVMs, rawShift uint8, seed int64) {
		numTasks := 1 + int(rawTasks)%1024
		numVMs := 1 + int(rawVMs)
		shift := uint(rawShift) % 11 // band sizes 1 .. 1024 rows

		m := newMapTable(rand.New(rand.NewSource(seed)), 1.0)
		bd := newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(seed)), 1.0)

		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 200; i++ {
			// Mostly in-rect keys; occasionally out-of-rect to hit the
			// overflow path on both sides of the boundary.
			k := Key{Task: ops.Intn(numTasks), VM: ops.Intn(numVMs)}
			if ops.Intn(10) == 0 {
				k = Key{Task: numTasks + ops.Intn(4), VM: numVMs + ops.Intn(4)}
			}
			switch ops.Intn(4) {
			case 0:
				if gm, gb := m.Value(k), bd.Value(k); gm != gb {
					t.Fatalf("Value(%+v): map %v, banded %v", k, gm, gb)
				}
			case 1:
				v := ops.NormFloat64()
				m.Set(k, v)
				bd.Set(k, v)
			case 2:
				r := ops.NormFloat64()
				if gm, gb := m.TDUpdate(k, 0.4, r, 0.9, 1), bd.TDUpdate(k, 0.4, r, 0.9, 1); gm != gb {
					t.Fatalf("TDUpdate(%+v): map %v, banded %v", k, gm, gb)
				}
			case 3:
				vm1, v1 := m.Best(k.Task, []int{0, numVMs / 2, numVMs - 1})
				vm2, v2 := bd.Best(k.Task, []int{0, numVMs / 2, numVMs - 1})
				if vm1 != vm2 || v1 != v2 {
					t.Fatalf("Best(%d): map (%d, %v), banded (%d, %v)", k.Task, vm1, v1, vm2, v2)
				}
			}
		}
		if m.Len() != bd.Len() {
			t.Fatalf("Len: map %d, banded %d", m.Len(), bd.Len())
		}
		sm, sb := m.Snapshot(), bd.Snapshot()
		if len(sm) != len(sb) {
			t.Fatalf("Snapshot length: map %d, banded %d", len(sm), len(sb))
		}
		for i := range sm {
			if sm[i] != sb[i] {
				t.Fatalf("Snapshot[%d]: map %+v, banded %+v", i, sm[i], sb[i])
			}
		}
	})
}

package des

import (
	"container/heap"
	"testing"
)

// refItem and refHeap are the reference FuzzHeap holds Heap to: an
// indexed container/heap that moves and removes items in place.
type refItem struct {
	key Key
	id  int32
	pos int
}

type refHeap []*refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key.Before(&h[j].key) }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *refHeap) Push(x any) {
	it := x.(*refItem)
	it.pos = len(*h)
	*h = append(*h, it)
}
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	it.pos = -1
	return it
}

// FuzzHeap feeds one byte-coded op stream — set (arm or move an id's
// key), pop, cancel, reset — to Heap and to refHeap. The reference
// moves and removes in place; Heap is driven the way its users drive
// it: setting pushes a fresh entry, cancelling only forgets the id's
// live key, and entries whose key is no longer their id's live key are
// discarded at the root. The two must agree on the root after every op
// and pop the same (key, id) sequence. Keys are (coarse time, tie in
// -1..2, id), so equal times and equal ties are common, and an id moved
// back to a key it left holds duplicate entries in Heap.
func FuzzHeap(f *testing.F) {
	// Ops are byte pairs: op&3 is the kind (0 set, 1 pop, 2 cancel,
	// 3 reset) and op>>2 the id; a set's arg codes time arg>>3 halves
	// and tie arg&3 - 1.
	//
	// Three ids at t=1 with ties 2, -1, 0, popped in tie order.
	f.Add([]byte{0x00, 0x13, 0x04, 0x10, 0x08, 0x11, 1, 0, 1, 0, 1, 0})
	// Arm id 0 and id 1, move id 0 later and back (a duplicate entry),
	// cancel id 1, pop.
	f.Add([]byte{0x00, 0x10, 0x04, 0x20, 0x00, 0x40, 0x00, 0x10, 0x06, 0, 1, 0, 1, 0})
	// A reset amid pending ids, then ids again.
	f.Add([]byte{0x00, 0x20, 0x04, 0x10, 3, 0, 0x08, 0x18, 1, 0, 0x04, 0x08})
	// Six entries at one time and tie, three of them id 12 set again at
	// the same key: the drain needs the root's fourth child.
	f.Add([]byte{0x38, 0x30, 0x30, 0x30, 0x30, 0x30, 0x20, 0x30, 0x58, 0x30, 0x30, 0x30})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ids = 16
		var h Heap[int32]
		var ref refHeap
		var items [ids]refItem
		var live [ids]bool
		var cur [ids]Key
		for i := range items {
			items[i] = refItem{id: int32(i), pos: -1}
		}
		// root discards stale entries and returns Heap's live root.
		root := func() *Item[int32] {
			for len(h) > 0 {
				if top := &h[0]; live[top.Val] && cur[top.Val] == top.Key {
					return top
				}
				h.Pop()
			}
			return nil
		}
		check := func(i int) {
			t.Helper()
			got := root()
			if (got == nil) != (len(ref) == 0) {
				t.Fatalf("op %d: heap root %v, reference has %d items", i, got, len(ref))
			}
			if got != nil && (got.Key != ref[0].key || got.Val != ref[0].id) {
				t.Fatalf("op %d: heap root %v/%d, reference %v/%d", i, got.Key, got.Val, ref[0].key, ref[0].id)
			}
		}
		pop := func(i int) {
			t.Helper()
			check(i)
			if len(ref) == 0 {
				return
			}
			want := heap.Pop(&ref).(*refItem)
			k := h[0].Key
			id := h.Pop()
			live[id] = false
			if k != want.key || id != want.id {
				t.Fatalf("op %d: popped %v/%d, reference %v/%d", i, k, id, want.key, want.id)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			id := int32(op>>2) % ids
			switch op & 3 {
			case 0:
				k := Key{Time: float64(arg>>3) / 2, Tie: int(arg&3) - 1, Seq: int64(id)}
				it := &items[id]
				it.key = k
				if it.pos < 0 {
					heap.Push(&ref, it)
				} else {
					heap.Fix(&ref, it.pos)
				}
				live[id], cur[id] = true, k
				h.Push(k, id)
			case 1:
				pop(i)
			case 2:
				if it := &items[id]; it.pos >= 0 {
					heap.Remove(&ref, it.pos)
				}
				live[id] = false
			case 3:
				for len(ref) > 0 {
					heap.Pop(&ref)
				}
				h = h[:0]
				live = [ids]bool{}
			}
			check(i)
		}
		for len(ref) > 0 {
			pop(len(ops))
		}
		if root() != nil {
			t.Fatalf("drained reference, heap still holds %v", h[0])
		}
	})
}

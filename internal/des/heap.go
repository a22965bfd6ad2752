package des

// Key orders a Heap: by Time, then Tie, then Seq. A user that keeps
// (Tie, Seq) unique among the items it holds at once gets a total
// order, so every correct heap pops the same sequence.
type Key struct {
	Time float64
	Tie  int
	Seq  int64
}

// Before reports whether k sorts ahead of o.
func (k *Key) Before(o *Key) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	if k.Tie != o.Tie {
		return k.Tie < o.Tie
	}
	return k.Seq < o.Seq
}

// Item is one Heap entry: the value the user keys, and the key inline,
// so a sift compares without following a pointer. Val comes first: a
// zero-size value (a heap of bare keys) would pad a trailing field out
// to a whole extra word.
type Item[V any] struct {
	Val V
	Key
}

// Heap is a 4-ary min-heap of Items: half the depth of a binary heap,
// and a node's four children sit next to each other in memory. The
// order is Key's alone, so the sift loops make no indirect call and
// pushing a value boxes nothing. h[0] is the minimum; ranging over h
// visits every item in no particular order, and h = h[:0] empties it
// keeping its backing array. There is no removal from the middle:
// users drop an item by invalidating it and discarding it when it
// surfaces at the root.
type Heap[V any] []Item[V]

// Push adds v under k.
func (h *Heap[V]) Push(k Key, v V) {
	x := Item[V]{v, k}
	*h = append(*h, x)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.Before(&q[p].Key) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// Pop removes the minimum item and returns its value; the heap must be
// non-empty. h[0].Key is the minimum's key.
func (h *Heap[V]) Pop() V {
	q := *h
	top := q[0].Val
	n := len(q) - 1
	x := q[n]
	q[n] = Item[V]{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].Before(&q[m].Key) {
				m = j
			}
		}
		if !q[m].Before(&x.Key) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
	return top
}

package core

import "reassign/internal/rl"

// pendingMax keeps max_a' Q(s', a') for the Q-learning bootstrap under
// AllPending without re-enumerating pending activations × VMs on every
// completion.
//
// Within an episode nothing writes a pending activation's row: TD
// stores are deferred to FlushTD (see Scheduler.td) and Pick only
// reads. Once one full scan has materialised every pending row and
// cached its maximum, the bootstrap is therefore the largest of a set
// of constants that only ever loses members, which a max-heap with
// lazy deletion answers in amortised O(log N): each activation is
// discarded at most once, when it has completed and reached the top.
type pendingMax struct {
	heap  []rowMax // binary max-heap on max; meaningful only while built
	built bool
}

// rowMax is one pending activation's cached row maximum.
type rowMax struct {
	max  float64
	task int
}

// build snapshots the cached row maximum of every pending activation.
// The heap stays unbuilt when some pending row has none (an
// activation outside the table's rectangle).
func (p *pendingMax) build(tab *rl.Table, pending []bool) {
	p.built = false
	h := p.heap[:0]
	for task, isPending := range pending {
		if !isPending {
			continue
		}
		m, ok := tab.RowMax(task)
		if !ok {
			return
		}
		h = append(h, rowMax{max: m, task: task})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	p.heap, p.built = h, true
}

// top returns the largest row maximum among the activations still
// pending, discarding completed ones from the top first. At least one
// activation must be pending.
func (p *pendingMax) top(pending []bool) float64 {
	h := p.heap
	for !pending[h[0].task] {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		siftDown(h, 0)
	}
	p.heap = h
	return h[0].max
}

func siftDown(h []rowMax, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].max > h[c].max {
			c = r
		}
		if h[c].max <= h[i].max {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

package rl

import (
	"math/rand"

	"reassign/internal/randsrc"
)

// Copy returns an independent deep copy of the table with rng as its
// random source for entries that materialise after the copy. The copy
// shares no state with the original, so replicas can learn on copies
// of one continuation table concurrently. A nil rng falls back to the
// same default as the constructors.
func (t *Table) Copy(rng *rand.Rand) *Table {
	if rng == nil {
		rng = rand.New(randsrc.New(1))
	}
	c := &Table{
		bandShift: t.bandShift,
		bandRows:  t.bandRows,
		bands:     make([]band, len(t.bands)),
		seenN:     t.seenN,
		numTasks:  t.numTasks,
		numVMs:    t.numVMs,
		rowN:      append([]int32(nil), t.rowN...),
		rowMax:    append([]float64(nil), t.rowMax...),
		rowArg:    append([]int32(nil), t.rowArg...),
		rowOK:     append([]bool(nil), t.rowOK...),
		rng:       rng,
		initSpan:  t.initSpan,
	}
	for i := range t.bands {
		if t.bands[i].vals != nil {
			c.bands[i].vals = append([]float64(nil), t.bands[i].vals...)
			c.bands[i].seen = append([]uint64(nil), t.bands[i].seen...)
		}
	}
	if len(t.overflow) > 0 {
		c.overflow = make(map[Key]float64, len(t.overflow))
		for k, v := range t.overflow {
			c.overflow[k] = v
		}
	}
	return c
}

// Average returns a new table holding the entry-wise mean of the
// given tables: each key materialised by at least one table averages
// over the tables that materialised it (unmaterialised entries do not
// drag the mean toward zero). This is the replica-ensemble merge for
// cross-execution continuation — K replicas explore independently and
// their consensus values seed the next execution's learning.
//
// The result takes tables[0]'s rectangle, band layout and initSpan;
// entries outside that rectangle (from tables of other shapes) land in
// its overflow map. rng becomes the result's source for future
// materialisation. Average panics on an empty table list.
func Average(rng *rand.Rand, tables ...*Table) *Table {
	if len(tables) == 0 {
		panic("rl: Average of no tables")
	}
	first := tables[0]
	out := newRect(first.numTasks, first.numVMs, first.bandShift, rng, first.initSpan)
	sum := make(map[Key]float64)
	count := make(map[Key]int)
	for _, t := range tables {
		for _, e := range t.Snapshot() {
			sum[e.Key] += e.Value
			count[e.Key]++
		}
	}
	for k, s := range sum {
		out.Set(k, s/float64(count[k]))
	}
	return out
}

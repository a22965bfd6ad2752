package invariant

import (
	"fmt"
	"sort"

	"reassign/internal/sim"
)

// CloneResult deep-copies the parts of a Result that Engine.Reset
// reclaims (Records, PerVM, Plan), so a run's outcome can be compared
// after the engine runs again.
func CloneResult(r *sim.Result) *sim.Result {
	c := *r
	c.Records = append([]sim.Record(nil), r.Records...)
	c.PerVM = make(map[int]sim.VMStats, len(r.PerVM))
	for k, v := range r.PerVM {
		c.PerVM[k] = v
	}
	if r.Plan != nil {
		c.Plan = make(map[string]int, len(r.Plan))
		for k, v := range r.Plan {
			c.Plan[k] = v
		}
	}
	return &c
}

// DiffResults compares two results field by field under the
// byte-stable-trace contract: every comparison is exact (==), never
// within-epsilon — two runs of the same configuration must agree to
// the last bit. It returns one human-readable line per difference,
// or nil when the results are identical. Kernel counters are excluded
// (a reset engine legitimately serves more events from the DES
// freelist than a fresh one), as are Decisions/Events only if you
// strip them first — by default they are compared too.
func DiffResults(a, b *sim.Result) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if a.Scheduler != b.Scheduler {
		add("scheduler: %q vs %q", a.Scheduler, b.Scheduler)
	}
	if a.State != b.State {
		add("state: %v vs %v", a.State, b.State)
	}
	if a.Makespan != b.Makespan {
		add("makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.Cost != b.Cost {
		add("cost: %v vs %v", a.Cost, b.Cost)
	}
	if a.BusyCost != b.BusyCost {
		add("busy-cost: %v vs %v", a.BusyCost, b.BusyCost)
	}
	if a.Decisions != b.Decisions {
		add("decisions: %d vs %d", a.Decisions, b.Decisions)
	}
	if a.Events != b.Events {
		add("events: %d vs %d", a.Events, b.Events)
	}
	if len(a.Records) != len(b.Records) {
		add("records: %d vs %d", len(a.Records), len(b.Records))
	} else {
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				add("record %d: %+v vs %+v", i, a.Records[i], b.Records[i])
			}
		}
	}
	if len(a.Plan) != len(b.Plan) {
		add("plan size: %d vs %d", len(a.Plan), len(b.Plan))
	} else {
		keys := make([]string, 0, len(a.Plan))
		for k := range a.Plan {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, ok := b.Plan[k]
			if !ok || a.Plan[k] != bv {
				add("plan[%s]: %d vs %d (present=%v)", k, a.Plan[k], bv, ok)
			}
		}
	}
	if len(a.PerVM) != len(b.PerVM) {
		add("per-VM size: %d vs %d", len(a.PerVM), len(b.PerVM))
	} else {
		ids := make([]int, 0, len(a.PerVM))
		for id := range a.PerVM {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			bv, ok := b.PerVM[id]
			if !ok || a.PerVM[id] != bv {
				add("per-VM[%d]: %+v vs %+v (present=%v)", id, a.PerVM[id], bv, ok)
			}
		}
	}
	return diffs
}

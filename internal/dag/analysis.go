package dag

import (
	"fmt"
	"sort"
)

// Levels partitions the activations by their depth: level 0 holds the
// roots; each activation sits one level below its deepest parent.
// The workflow must be acyclic.
func (w *Workflow) Levels() ([][]*Activation, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(w.acts))
	max := 0
	for _, a := range order {
		d := 0
		for _, p := range a.parents {
			if depth[p.Index]+1 > d {
				d = depth[p.Index] + 1
			}
		}
		depth[a.Index] = d
		if d > max {
			max = d
		}
	}
	levels := make([][]*Activation, max+1)
	for _, a := range w.acts {
		levels[depth[a.Index]] = append(levels[depth[a.Index]], a)
	}
	return levels, nil
}

// Depth returns the number of levels (height of the DAG).
func (w *Workflow) Depth() (int, error) {
	lv, err := w.Levels()
	if err != nil {
		return 0, err
	}
	return len(lv), nil
}

// CriticalPath returns the chain of activations with the largest total
// reference runtime, and that total. Communication costs are ignored
// (the pure computation critical path, a lower bound on makespan with
// unit-speed VMs).
func (w *Workflow) CriticalPath() ([]*Activation, float64, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	finish := make([]float64, len(w.acts)) // longest path ending at node, inclusive
	pred := make([]*Activation, len(w.acts))
	for _, a := range order {
		best := 0.0
		var bp *Activation
		for _, p := range a.parents {
			if finish[p.Index] > best {
				best = finish[p.Index]
				bp = p
			}
		}
		finish[a.Index] = best + a.Runtime
		pred[a.Index] = bp
	}
	var end *Activation
	bestLen := -1.0
	for _, a := range w.acts {
		if finish[a.Index] > bestLen {
			bestLen = finish[a.Index]
			end = a
		}
	}
	var path []*Activation
	for a := end; a != nil; a = pred[a.Index] {
		path = append(path, a)
	}
	// Reverse into root-to-leaf order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, bestLen, nil
}

// Ancestors returns the set of all (transitive) ancestors of the
// activation with the given ID, as a map keyed by activation ID.
func (w *Workflow) Ancestors(id string) (map[string]*Activation, error) {
	a := w.Get(id)
	if a == nil {
		return nil, fmt.Errorf("dag: unknown activation %q", id)
	}
	out := make(map[string]*Activation)
	var visit func(x *Activation)
	visit = func(x *Activation) {
		for _, p := range x.parents {
			if _, seen := out[p.ID]; !seen {
				out[p.ID] = p
				visit(p)
			}
		}
	}
	visit(a)
	return out, nil
}

// Descendants returns the set of all (transitive) descendants of the
// activation with the given ID.
func (w *Workflow) Descendants(id string) (map[string]*Activation, error) {
	a := w.Get(id)
	if a == nil {
		return nil, fmt.Errorf("dag: unknown activation %q", id)
	}
	out := make(map[string]*Activation)
	var visit func(x *Activation)
	visit = func(x *Activation) {
		for _, c := range x.children {
			if _, seen := out[c.ID]; !seen {
				out[c.ID] = c
				visit(c)
			}
		}
	}
	visit(a)
	return out, nil
}

// ActivityNames returns the distinct activity names, sorted.
func (w *Workflow) ActivityNames() []string {
	set := make(map[string]bool)
	for _, a := range w.acts {
		set[a.Activity] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CountByActivity returns the number of activations per activity name.
func (w *Workflow) CountByActivity() map[string]int {
	out := make(map[string]int)
	for _, a := range w.acts {
		out[a.Activity]++
	}
	return out
}

// Width returns the size of the largest level (maximum theoretical
// parallelism).
func (w *Workflow) Width() (int, error) {
	lv, err := w.Levels()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, l := range lv {
		if len(l) > max {
			max = len(l)
		}
	}
	return max, nil
}

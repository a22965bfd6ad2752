// Package dag models scientific workflows as directed acyclic graphs
// of activations, following the formalism of the paper: a workflow
// W(A, Dep) whose nodes are activities, instantiated into activations
// (the smallest units of work schedulable in parallel), with data
// dependencies derived from produced/consumed files.
package dag

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// File is a data artifact consumed or produced by an activation.
type File struct {
	Name string
	Size int64 // bytes
}

// Activation is one schedulable unit of work (a task). Each
// activation belongs to an activity (its transformation / program
// name, e.g. "mProjectPP" in Montage).
type Activation struct {
	ID       string  // unique within the workflow (DAX style, e.g. "ID00007")
	Index    int     // dense index assigned by the workflow, 0..N-1
	Activity string  // activity / transformation name
	Runtime  float64 // reference execution time in seconds on a 1.0-speed VM
	// Args is the job's command line (DAX <argument> flattened to
	// argv), consumed by execution-stage command runners; empty for
	// synthetic and simulation-only workflows.
	Args    []string
	Inputs  []File
	Outputs []File

	parents  []*Activation
	children []*Activation
}

// Parents returns the activations this one depends on. The returned
// slice is shared; callers must not mutate it.
func (a *Activation) Parents() []*Activation { return a.parents }

// Children returns the activations depending on this one. The
// returned slice is shared; callers must not mutate it.
func (a *Activation) Children() []*Activation { return a.children }

// InputBytes returns the total size of the activation's input files.
func (a *Activation) InputBytes() int64 {
	var n int64
	for _, f := range a.Inputs {
		n += f.Size
	}
	return n
}

// OutputBytes returns the total size of the activation's output files.
func (a *Activation) OutputBytes() int64 {
	var n int64
	for _, f := range a.Outputs {
		n += f.Size
	}
	return n
}

func (a *Activation) String() string {
	return fmt.Sprintf("%s(%s)", a.ID, a.Activity)
}

// Workflow is a DAG of activations.
type Workflow struct {
	Name string

	acts []*Activation
	byID map[string]*Activation

	// validated caches a successful Validate; any structural mutation
	// (Add, AddDep) clears it, so repeated runs over an unchanged
	// workflow skip the O(V+E) re-check. It is atomic because replica
	// learners validate a shared workflow concurrently (the check
	// itself is read-only and idempotent, so two racing validations
	// are harmless).
	validated atomic.Bool

	// idOrder caches IDOrder; Add clears it. Readers that race to
	// build it build equal slices, and the last store wins.
	idOrder atomic.Pointer[[]int32]
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name, byID: make(map[string]*Activation)}
}

// Len returns the number of activations.
func (w *Workflow) Len() int { return len(w.acts) }

// Activations returns all activations in insertion (index) order.
// The returned slice is shared; callers must not mutate it.
func (w *Workflow) Activations() []*Activation { return w.acts }

// Get returns the activation with the given ID, or nil.
func (w *Workflow) Get(id string) *Activation { return w.byID[id] }

// ByIndex returns the activation with the given dense index.
func (w *Workflow) ByIndex(i int) *Activation { return w.acts[i] }

// IDOrder returns the activation indices in ascending (byte-wise) ID
// order: the order a core.Plan keeps its entries in. It is built on
// first use and shared by every later call until Add changes the
// workflow, and it is safe for concurrent use; callers must not mutate
// it.
func (w *Workflow) IDOrder() []int32 {
	if p := w.idOrder.Load(); p != nil {
		return *p
	}
	order := make([]int32, len(w.acts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(w.acts[a].ID, w.acts[b].ID) })
	w.idOrder.Store(&order)
	return order
}

// Add creates and inserts a new activation. It returns an error if
// the ID is already taken or the runtime is negative.
func (w *Workflow) Add(id, activity string, runtime float64) (*Activation, error) {
	if id == "" {
		return nil, fmt.Errorf("dag: empty activation ID")
	}
	if _, dup := w.byID[id]; dup {
		return nil, fmt.Errorf("dag: duplicate activation ID %q", id)
	}
	if runtime < 0 {
		return nil, fmt.Errorf("dag: activation %q has negative runtime %v", id, runtime)
	}
	a := &Activation{ID: id, Index: len(w.acts), Activity: activity, Runtime: runtime}
	w.acts = append(w.acts, a)
	w.byID[id] = a
	w.validated.Store(false)
	w.idOrder.Store(nil)
	return a, nil
}

// MustAdd is Add that panics on error, for generators and tests.
func (w *Workflow) MustAdd(id, activity string, runtime float64) *Activation {
	a, err := w.Add(id, activity, runtime)
	if err != nil {
		panic(err)
	}
	return a
}

// AddDep records that child depends on parent (parent must finish
// before child may start). Self-dependencies and unknown IDs are
// errors; duplicate edges are ignored.
func (w *Workflow) AddDep(parentID, childID string) error {
	p, ok := w.byID[parentID]
	if !ok {
		return fmt.Errorf("dag: unknown parent %q", parentID)
	}
	c, ok := w.byID[childID]
	if !ok {
		return fmt.Errorf("dag: unknown child %q", childID)
	}
	if p == c {
		return fmt.Errorf("dag: self-dependency on %q", parentID)
	}
	for _, existing := range p.children {
		if existing == c {
			return nil
		}
	}
	p.children = append(p.children, c)
	c.parents = append(c.parents, p)
	w.validated.Store(false)
	return nil
}

// MustDep is AddDep that panics on error.
func (w *Workflow) MustDep(parentID, childID string) {
	if err := w.AddDep(parentID, childID); err != nil {
		panic(err)
	}
}

// HasDep reports whether a direct edge parent->child exists.
func (w *Workflow) HasDep(parentID, childID string) bool {
	p, ok := w.byID[parentID]
	if !ok {
		return false
	}
	for _, c := range p.children {
		if c.ID == childID {
			return true
		}
	}
	return false
}

// Roots returns activations with no parents, in index order.
func (w *Workflow) Roots() []*Activation {
	var out []*Activation
	for _, a := range w.acts {
		if len(a.parents) == 0 {
			out = append(out, a)
		}
	}
	return out
}

// Leaves returns activations with no children, in index order.
func (w *Workflow) Leaves() []*Activation {
	var out []*Activation
	for _, a := range w.acts {
		if len(a.children) == 0 {
			out = append(out, a)
		}
	}
	return out
}

// Edges returns the number of dependency edges.
func (w *Workflow) Edges() int {
	n := 0
	for _, a := range w.acts {
		n += len(a.children)
	}
	return n
}

// TotalRuntime returns the sum of all activation reference runtimes
// (the sequential makespan on a 1.0-speed machine).
func (w *Workflow) TotalRuntime() float64 {
	var s float64
	for _, a := range w.acts {
		s += a.Runtime
	}
	return s
}

// Validate checks structural invariants: at least one activation,
// consistent parent/child symmetry, and acyclicity.
func (w *Workflow) Validate() error {
	if w.validated.Load() {
		return nil
	}
	if len(w.acts) == 0 {
		return fmt.Errorf("dag: workflow %q has no activations", w.Name)
	}
	for _, a := range w.acts {
		for _, c := range a.children {
			if !contains(c.parents, a) {
				return fmt.Errorf("dag: asymmetric edge %s->%s", a.ID, c.ID)
			}
		}
		for _, p := range a.parents {
			if !contains(p.children, a) {
				return fmt.Errorf("dag: asymmetric edge %s->%s", p.ID, a.ID)
			}
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	w.validated.Store(true)
	return nil
}

func contains(list []*Activation, a *Activation) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

// TopoOrder returns the activations in a deterministic topological
// order (Kahn's algorithm, always taking the lowest-index ready
// activation). It returns an error naming a cycle member if the graph
// is cyclic. The ready set is a min-heap, so a wide workflow costs
// O(n log n).
func (w *Workflow) TopoOrder() ([]*Activation, error) {
	indeg := make([]int, len(w.acts))
	// Roots are appended in index order, and a sorted slice is
	// already a valid min-heap.
	ready := make(indexHeap, 0, len(w.acts))
	for _, a := range w.acts {
		indeg[a.Index] = len(a.parents)
		if indeg[a.Index] == 0 {
			ready = append(ready, a.Index)
		}
	}
	order := make([]*Activation, 0, len(w.acts))
	for len(ready) > 0 {
		a := w.acts[ready.pop()]
		order = append(order, a)
		for _, c := range a.children {
			indeg[c.Index]--
			if indeg[c.Index] == 0 {
				ready.push(c.Index)
			}
		}
	}
	if len(order) != len(w.acts) {
		for _, a := range w.acts {
			if indeg[a.Index] > 0 {
				return nil, fmt.Errorf("dag: cycle detected involving %s", a.ID)
			}
		}
	}
	return order, nil
}

// indexHeap is a binary min-heap of activation indices.
type indexHeap []int

func (h *indexHeap) push(i int) {
	s := append(*h, i)
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if s[p] <= s[c] {
			break
		}
		s[p], s[c] = s[c], s[p]
		c = p
	}
	*h = s
}

func (h *indexHeap) pop() int {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[p] <= s[c] {
			break
		}
		s[p], s[c] = s[c], s[p]
		p = c
	}
	*h = s
	return top
}

// InferDataDeps adds a dependency edge a->b wherever an output file of
// a is an input file of b, per the paper's dep(ac_i, ac_j) definition.
// It returns the number of edges added.
func (w *Workflow) InferDataDeps() int {
	producer := make(map[string]*Activation)
	for _, a := range w.acts {
		for _, f := range a.Outputs {
			producer[f.Name] = a
		}
	}
	added := 0
	for _, b := range w.acts {
		for _, f := range b.Inputs {
			a, ok := producer[f.Name]
			if !ok || a == b {
				continue
			}
			if !w.HasDep(a.ID, b.ID) {
				if err := w.AddDep(a.ID, b.ID); err == nil {
					added++
				}
			}
		}
	}
	return added
}

// Merge combines several workflows into one ensemble DAG, prefixing
// every activation ID with its workflow's name (and index, to stay
// unique) — the shape used to schedule a batch of workflows onto one
// shared fleet. The inputs are not modified.
func Merge(name string, ws ...*Workflow) (*Workflow, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("dag: merge of zero workflows")
	}
	out := New(name)
	for i, w := range ws {
		prefix := fmt.Sprintf("%s#%d/", w.Name, i)
		for _, a := range w.Activations() {
			na, err := out.Add(prefix+a.ID, a.Activity, a.Runtime)
			if err != nil {
				return nil, err
			}
			na.Inputs = prefixFiles(prefix, a.Inputs)
			na.Outputs = prefixFiles(prefix, a.Outputs)
		}
		for _, a := range w.Activations() {
			for _, c := range a.Children() {
				if err := out.AddDep(prefix+a.ID, prefix+c.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// prefixFiles namespaces file names so identically named files of
// different ensemble members stay distinct.
func prefixFiles(prefix string, fs []File) []File {
	out := make([]File, len(fs))
	for i, f := range fs {
		out[i] = File{Name: prefix + f.Name, Size: f.Size}
	}
	return out
}

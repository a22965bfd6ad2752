package dag

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic 4-node diamond: a -> {b, c} -> d.
func diamond(t testing.TB) *Workflow {
	w := New("diamond")
	w.MustAdd("a", "load", 1)
	w.MustAdd("b", "left", 2)
	w.MustAdd("c", "right", 3)
	w.MustAdd("d", "join", 4)
	w.MustDep("a", "b")
	w.MustDep("a", "c")
	w.MustDep("b", "d")
	w.MustDep("c", "d")
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAddAndGet(t *testing.T) {
	w := New("w")
	a, err := w.Add("t1", "proc", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Index != 0 || a.Activity != "proc" || a.Runtime != 5 {
		t.Fatalf("unexpected activation %+v", a)
	}
	if w.Get("t1") != a {
		t.Fatal("Get did not return the added activation")
	}
	if w.Get("missing") != nil {
		t.Fatal("Get returned non-nil for missing ID")
	}
	if w.ByIndex(0) != a {
		t.Fatal("ByIndex(0) mismatch")
	}
}

func TestAddErrors(t *testing.T) {
	w := New("w")
	if _, err := w.Add("", "x", 1); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := w.Add("a", "x", -1); err == nil {
		t.Fatal("negative runtime accepted")
	}
	w.MustAdd("a", "x", 1)
	if _, err := w.Add("a", "x", 1); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestAddDepErrors(t *testing.T) {
	w := New("w")
	w.MustAdd("a", "x", 1)
	if err := w.AddDep("a", "missing"); err == nil {
		t.Fatal("unknown child accepted")
	}
	if err := w.AddDep("missing", "a"); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if err := w.AddDep("a", "a"); err == nil {
		t.Fatal("self-dependency accepted")
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	w := New("w")
	w.MustAdd("a", "x", 1)
	w.MustAdd("b", "x", 1)
	w.MustDep("a", "b")
	w.MustDep("a", "b")
	if got := w.Edges(); got != 1 {
		t.Fatalf("Edges() = %d, want 1", got)
	}
	if len(w.Get("b").Parents()) != 1 {
		t.Fatalf("b has %d parents, want 1", len(w.Get("b").Parents()))
	}
}

func TestRootsAndLeaves(t *testing.T) {
	w := diamond(t)
	roots, leaves := w.Roots(), w.Leaves()
	if len(roots) != 1 || roots[0].ID != "a" {
		t.Fatalf("Roots() = %v", roots)
	}
	if len(leaves) != 1 || leaves[0].ID != "d" {
		t.Fatalf("Leaves() = %v", leaves)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	w := diamond(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, a := range order {
		pos[a.ID] = i
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %v violated in order %v", e, order)
		}
	}
}

func TestCycleDetected(t *testing.T) {
	w := New("cyclic")
	w.MustAdd("a", "x", 1)
	w.MustAdd("b", "x", 1)
	w.MustAdd("c", "x", 1)
	w.MustDep("a", "b")
	w.MustDep("b", "c")
	w.MustDep("c", "a")
	if _, err := w.TopoOrder(); err == nil {
		t.Fatal("cycle not detected by TopoOrder")
	}
	if err := w.Validate(); err == nil {
		t.Fatal("cycle not detected by Validate")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("empty workflow validated")
	}
}

func TestLevels(t *testing.T) {
	w := diamond(t)
	lv, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(lv) != 3 {
		t.Fatalf("levels = %d, want 3", len(lv))
	}
	if len(lv[0]) != 1 || lv[0][0].ID != "a" {
		t.Fatalf("level 0 = %v", lv[0])
	}
	if len(lv[1]) != 2 {
		t.Fatalf("level 1 = %v", lv[1])
	}
	if len(lv[2]) != 1 || lv[2][0].ID != "d" {
		t.Fatalf("level 2 = %v", lv[2])
	}
	d, _ := w.Depth()
	if d != 3 {
		t.Fatalf("Depth() = %d, want 3", d)
	}
	width, _ := w.Width()
	if width != 2 {
		t.Fatalf("Width() = %d, want 2", width)
	}
}

func TestCriticalPath(t *testing.T) {
	w := diamond(t)
	path, length, err := w.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	// a(1) -> c(3) -> d(4) = 8 beats a -> b(2) -> d = 7.
	if length != 8 {
		t.Fatalf("critical path length = %v, want 8", length)
	}
	want := []string{"a", "c", "d"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i, id := range want {
		if path[i].ID != id {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestAncestorsDescendants(t *testing.T) {
	w := diamond(t)
	anc, err := w.Ancestors("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 3 {
		t.Fatalf("ancestors of d = %v, want 3", anc)
	}
	desc, err := w.Descendants("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 3 {
		t.Fatalf("descendants of a = %v, want 3", desc)
	}
	if _, err := w.Ancestors("missing"); err == nil {
		t.Fatal("Ancestors of missing ID succeeded")
	}
	if _, err := w.Descendants("missing"); err == nil {
		t.Fatal("Descendants of missing ID succeeded")
	}
}

func TestInferDataDeps(t *testing.T) {
	w := New("data")
	a := w.MustAdd("a", "produce", 1)
	b := w.MustAdd("b", "consume", 1)
	c := w.MustAdd("c", "independent", 1)
	a.Outputs = []File{{Name: "f1.dat", Size: 100}}
	b.Inputs = []File{{Name: "f1.dat", Size: 100}, {Name: "external.dat", Size: 5}}
	c.Inputs = []File{{Name: "other.dat", Size: 1}}
	added := w.InferDataDeps()
	if added != 1 {
		t.Fatalf("InferDataDeps added %d edges, want 1", added)
	}
	if !w.HasDep("a", "b") {
		t.Fatal("missing inferred edge a->b")
	}
	if w.HasDep("a", "c") || w.HasDep("b", "c") {
		t.Fatal("spurious edge to c")
	}
	// Idempotent.
	if again := w.InferDataDeps(); again != 0 {
		t.Fatalf("second InferDataDeps added %d edges, want 0", again)
	}
}

func TestFileByteTotals(t *testing.T) {
	a := &Activation{
		Inputs:  []File{{Size: 10}, {Size: 20}},
		Outputs: []File{{Size: 5}},
	}
	if a.InputBytes() != 30 {
		t.Fatalf("InputBytes = %d", a.InputBytes())
	}
	if a.OutputBytes() != 5 {
		t.Fatalf("OutputBytes = %d", a.OutputBytes())
	}
}

func TestActivityNamesAndCounts(t *testing.T) {
	w := New("w")
	w.MustAdd("1", "b", 1)
	w.MustAdd("2", "a", 1)
	w.MustAdd("3", "b", 1)
	names := w.ActivityNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("ActivityNames = %v", names)
	}
	counts := w.CountByActivity()
	if counts["a"] != 1 || counts["b"] != 2 {
		t.Fatalf("CountByActivity = %v", counts)
	}
}

func TestTotalRuntime(t *testing.T) {
	w := diamond(t)
	if got := w.TotalRuntime(); got != 10 {
		t.Fatalf("TotalRuntime = %v, want 10", got)
	}
}

// randomDAG builds a random layered DAG: edges only go from lower to
// higher indices, guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int, p float64) *Workflow {
	w := New("random")
	for i := 0; i < n; i++ {
		w.MustAdd(fmt.Sprintf("t%d", i), "x", rng.Float64()*10+0.1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				w.MustDep(fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", j))
			}
		}
	}
	return w
}

// Property: TopoOrder always takes the lowest-index ready activation
// — checked against a quadratic scan on DAGs whose edges run against
// index order as often as with it.
func TestPropertyTopoOrderLowestIndexFirst(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN)%40 + 1
		p := float64(rawP%100) / 150.0
		rank := rng.Perm(n)
		w := New("shuffled")
		for i := 0; i < n; i++ {
			w.MustAdd(fmt.Sprintf("t%d", i), "x", 1)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rank[i] < rank[j] && rng.Float64() < p {
					w.MustDep(fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", j))
				}
			}
		}
		order, err := w.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		done := make([]bool, n)
		for _, got := range order {
			want := -1
			for i, a := range w.Activations() {
				if done[i] {
					continue
				}
				ready := true
				for _, p := range a.Parents() {
					ready = ready && done[p.Index]
				}
				if ready {
					want = i
					break
				}
			}
			if got.Index != want {
				return false
			}
			done[want] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: topological order contains every node exactly once and
// respects every edge.
func TestPropertyTopoOrderValid(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN)%30 + 1
		p := float64(rawP%100) / 150.0
		w := randomDAG(rng, n, p)
		order, err := w.TopoOrder()
		if err != nil {
			return false
		}
		if len(order) != n {
			return false
		}
		pos := make(map[*Activation]int, n)
		for i, a := range order {
			if _, dup := pos[a]; dup {
				return false
			}
			pos[a] = i
		}
		for _, a := range w.Activations() {
			for _, c := range a.Children() {
				if pos[a] >= pos[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the critical path length is at least the longest single
// runtime and at most the total runtime, and the returned path's
// runtimes sum to the returned length.
func TestPropertyCriticalPathBounds(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN)%25 + 1
		w := randomDAG(rng, n, 0.2)
		path, length, err := w.CriticalPath()
		if err != nil {
			return false
		}
		var sum, maxRt float64
		for _, a := range w.Activations() {
			if a.Runtime > maxRt {
				maxRt = a.Runtime
			}
		}
		for _, a := range path {
			sum += a.Runtime
		}
		if length < maxRt-1e-9 || length > w.TotalRuntime()+1e-9 {
			return false
		}
		return sum > length-1e-9 && sum < length+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopoOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := randomDAG(rng, 200, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := randomDAG(rng, 200, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.CriticalPath(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMerge(t *testing.T) {
	a := diamond(t)
	b := New("other")
	b.MustAdd("x", "solo", 5)

	m, err := Merge("ensemble", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d, want 5", m.Len())
	}
	if m.Edges() != a.Edges() {
		t.Fatalf("Edges = %d, want %d", m.Edges(), a.Edges())
	}
	// IDs namespaced; originals untouched.
	if m.Get("diamond#0/a") == nil || m.Get("other#1/x") == nil {
		t.Fatalf("namespaced IDs missing")
	}
	if a.Get("a") == nil || a.Len() != 4 {
		t.Fatal("merge mutated input")
	}
	// Cross-workflow independence: the two components are disconnected.
	desc, err := m.Descendants("diamond#0/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, crossed := desc["other#1/x"]; crossed {
		t.Fatal("merge connected unrelated workflows")
	}
}

func TestMergeSameWorkflowTwice(t *testing.T) {
	w := diamond(t)
	w.Get("a").Outputs = []File{{Name: "shared.dat", Size: 1}}
	m, err := Merge("double", w, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 8 {
		t.Fatalf("Len = %d, want 8", m.Len())
	}
	// File names are namespaced per instance, so data-dependency
	// inference cannot cross instances.
	if added := m.InferDataDeps(); added != 0 {
		t.Fatalf("InferDataDeps crossed ensemble members: %d edges", added)
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := Merge("none"); err == nil {
		t.Fatal("empty merge accepted")
	}
}

// TestIDOrder: IDOrder lists the activation indices by ascending ID,
// byte-wise, and an Add after a first use is in the next call's order.
func TestIDOrder(t *testing.T) {
	w := New("ids")
	for _, id := range []string{"j9", "j10", "B", "a"} {
		w.MustAdd(id, "x", 1)
	}
	check := func(want ...string) {
		t.Helper()
		var got []string
		for _, k := range w.IDOrder() {
			got = append(got, w.ByIndex(int(k)).ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("IDOrder walks %v, want %v", got, want)
		}
	}
	check("B", "a", "j10", "j9")
	w.MustAdd("A", "x", 1)
	check("A", "B", "a", "j10", "j9")
}

package rl

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestValueRandomInit(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 1.0)
	k := Key{Task: 0, VM: 0}
	v1 := tab.Value(k)
	if v1 < 0 || v1 >= 1 {
		t.Fatalf("init value %v outside [0,1)", v1)
	}
	if v2 := tab.Value(k); v2 != v1 {
		t.Fatalf("second read changed value: %v vs %v", v2, v1)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestZeroInitSpan(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 0)
	if v := tab.Value(Key{1, 2}); v != 0 {
		t.Fatalf("zero-span init = %v", v)
	}
}

func TestNilRNGDefaults(t *testing.T) {
	tab := NewTable(1, 1, nil, 1.0)
	_ = tab.Value(Key{0, 0}) // must not panic
}

func TestPeekSetAdd(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 0)
	if _, ok := tab.Peek(Key{0, 0}); ok {
		t.Fatal("Peek materialised an entry")
	}
	tab.Set(Key{0, 0}, 5)
	if v, ok := tab.Peek(Key{0, 0}); !ok || v != 5 {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
	tab.Add(Key{0, 0}, 2.5)
	if v := tab.Value(Key{0, 0}); v != 7.5 {
		t.Fatalf("after Add = %v", v)
	}
}

func TestBestAndTies(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{0, 0}, 1)
	tab.Set(Key{0, 1}, 3)
	tab.Set(Key{0, 2}, 3)
	vm, v := tab.Best(0, []int{0, 1, 2})
	if vm != 1 || v != 3 {
		t.Fatalf("Best = vm%d/%v, want vm1/3 (lowest-ID tie-break)", vm, v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Best with empty candidates did not panic")
		}
	}()
	tab.Best(0, nil)
}

func TestMaxOver(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{0, 0}, -5)
	tab.Set(Key{1, 0}, 2)
	if got := tab.MaxOver([]Key{{0, 0}, {1, 0}}); got != 2 {
		t.Fatalf("MaxOver = %v", got)
	}
	if got := tab.MaxOver(nil); got != 0 {
		t.Fatalf("MaxOver(empty) = %v, want 0 (terminal)", got)
	}
}

func TestMean(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 0)
	if tab.Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
	tab.Set(Key{0, 0}, 2)
	tab.Set(Key{0, 1}, 4)
	if tab.Mean() != 3 {
		t.Fatalf("Mean = %v", tab.Mean())
	}
}

func TestSnapshotSorted(t *testing.T) {
	tab := NewTable(4, 4, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{1, 1}, 1)
	tab.Set(Key{0, 2}, 2)
	tab.Set(Key{0, 1}, 3)
	tab.Set(Key{0, 9}, 4) // overflow sorts among the rectangle's entries
	s := tab.Snapshot()
	if len(s) != 4 {
		t.Fatalf("snapshot = %v", s)
	}
	if s[0].Key != (Key{0, 1}) || s[1].Key != (Key{0, 2}) || s[2].Key != (Key{0, 9}) || s[3].Key != (Key{1, 1}) {
		t.Fatalf("snapshot order = %v", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := NewTable(5, 3, rand.New(rand.NewSource(1)), 1)
	for i := 0; i < 20; i++ {
		tab.Set(Key{i % 5, i % 3}, float64(i)*0.7)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tab2 := NewTable(5, 3, rand.New(rand.NewSource(99)), 1)
	if err := tab2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != tab.Len() {
		t.Fatalf("Len after load = %d", tab2.Len())
	}
	for _, e := range tab.Snapshot() {
		if v, ok := tab2.Peek(e.Key); !ok || v != e.Value {
			t.Fatalf("entry %v: got %v, %v", e.Key, v, ok)
		}
	}
}

func TestLoadBadJSON(t *testing.T) {
	tab := NewTable(1, 1, nil, 1)
	if err := tab.Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.json")
	tab := NewTable(4, 5, rand.New(rand.NewSource(1)), 1)
	tab.Set(Key{3, 4}, 9.5)
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	tab2 := NewTable(4, 5, nil, 1)
	if err := tab2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if v, _ := tab2.Peek(Key{3, 4}); v != 9.5 {
		t.Fatalf("loaded %v", v)
	}
	if err := tab2.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestEpsilonGreedyPaperConvention(t *testing.T) {
	// ε=1.0 under the paper's convention always exploits.
	tab := NewTable(1, 2, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{0, 0}, 0)
	tab.Set(Key{0, 1}, 10)
	rng := rand.New(rand.NewSource(2))
	p := EpsilonGreedy{Epsilon: 1.0}
	for i := 0; i < 50; i++ {
		if got := p.Select(tab, 0, []int{0, 1}, rng); got != 1 {
			t.Fatalf("ε=1.0 (paper) explored: chose %d", got)
		}
	}
	// ε=0.0 always explores: both VMs must appear.
	p0 := EpsilonGreedy{Epsilon: 0.0}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[p0.Select(tab, 0, []int{0, 1}, rng)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("ε=0.0 (paper) did not explore: %v", seen)
	}
}

func TestEpsilonGreedyTextbookConvention(t *testing.T) {
	tab := NewTable(1, 2, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{0, 0}, 0)
	tab.Set(Key{0, 1}, 10)
	rng := rand.New(rand.NewSource(2))
	p := EpsilonGreedy{Epsilon: 0.0, Textbook: true}
	for i := 0; i < 50; i++ {
		if got := p.Select(tab, 0, []int{0, 1}, rng); got != 1 {
			t.Fatalf("textbook ε=0 explored: chose %d", got)
		}
	}
}

func TestGreedyPolicy(t *testing.T) {
	tab := NewTable(1, 8, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{0, 3}, 1)
	tab.Set(Key{0, 7}, 5)
	rng := rand.New(rand.NewSource(2))
	if got := (Greedy{}).Select(tab, 0, []int{3, 7}, rng); got != 7 {
		t.Fatalf("Greedy chose %d", got)
	}
}

func TestBoltzmannFavorsHighQ(t *testing.T) {
	tab := NewTable(1, 2, rand.New(rand.NewSource(1)), 0)
	tab.Set(Key{0, 0}, 0)
	tab.Set(Key{0, 1}, 5)
	rng := rand.New(rand.NewSource(2))
	p := Boltzmann{Temperature: 1}
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		counts[p.Select(tab, 0, []int{0, 1}, rng)]++
	}
	if counts[1] <= counts[0]*10 {
		t.Fatalf("Boltzmann counts = %v; VM1 should dominate at ΔQ=5, T=1", counts)
	}
	// Very high temperature ≈ uniform.
	pHot := Boltzmann{Temperature: 1e9}
	hot := map[int]int{}
	for i := 0; i < 2000; i++ {
		hot[pHot.Select(tab, 0, []int{0, 1}, rng)]++
	}
	if hot[0] < 800 || hot[1] < 800 {
		t.Fatalf("hot Boltzmann not near-uniform: %v", hot)
	}
	// Non-positive temperature must not panic or divide by zero.
	pZero := Boltzmann{Temperature: 0}
	if got := pZero.Select(tab, 0, []int{0, 1}, rng); got != 0 && got != 1 {
		t.Fatalf("zero-temp select = %d", got)
	}
}

func TestPolicyPanicsOnEmpty(t *testing.T) {
	tab := NewTable(1, 1, nil, 0)
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Policy{EpsilonGreedy{}, Boltzmann{Temperature: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T did not panic on empty candidates", p)
				}
			}()
			p.Select(tab, 0, nil, rng)
		}()
	}
}

func TestSchedules(t *testing.T) {
	if Const(0.5).At(100) != 0.5 {
		t.Fatal("Const not constant")
	}
	d := LinearDecay{Start: 1, End: 0, Over: 11}
	if d.At(0) != 1 {
		t.Fatalf("LinearDecay.At(0) = %v", d.At(0))
	}
	if math.Abs(d.At(5)-0.5) > 1e-9 {
		t.Fatalf("LinearDecay.At(5) = %v", d.At(5))
	}
	if d.At(10) != 0 || d.At(1000) != 0 {
		t.Fatal("LinearDecay did not clamp at End")
	}
	if d.At(-5) != 1 {
		t.Fatal("LinearDecay negative episode not clamped")
	}
	e := ExpDecay{Start: 1, Rate: 0.5, Floor: 0.1}
	if e.At(0) != 1 || e.At(1) != 0.5 || e.At(2) != 0.25 {
		t.Fatalf("ExpDecay = %v %v %v", e.At(0), e.At(1), e.At(2))
	}
	if e.At(100) != 0.1 {
		t.Fatalf("ExpDecay floor = %v", e.At(100))
	}
	if (LinearDecay{Start: 3, End: 7, Over: 0}).At(0) != 7 {
		t.Fatal("degenerate LinearDecay should return End")
	}
}

// Property: save/load round-trips any table exactly.
func TestPropertySaveLoadRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(50, 15, rng, 1)
		for i := 0; i < int(n); i++ {
			tab.Set(Key{rng.Intn(50), rng.Intn(15)}, rng.NormFloat64()*10)
		}
		var buf bytes.Buffer
		if err := tab.Save(&buf); err != nil {
			return false
		}
		tab2 := NewTable(50, 15, nil, 1)
		if err := tab2.Load(&buf); err != nil {
			return false
		}
		if tab2.Len() != tab.Len() {
			return false
		}
		for _, e := range tab.Snapshot() {
			if v, ok := tab2.Peek(e.Key); !ok || v != e.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Best always returns a candidate from the list with the
// maximal Q value among the candidates.
func TestPropertyBestIsArgmax(t *testing.T) {
	f := func(seed int64, rawVMs []uint8) bool {
		if len(rawVMs) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(1, 32, rng, 1)
		seen := map[int]bool{}
		var vms []int
		for _, r := range rawVMs {
			id := int(r) % 32
			if !seen[id] {
				seen[id] = true
				vms = append(vms, id)
			}
		}
		vm, v := tab.Best(0, vms)
		found := false
		for _, id := range vms {
			q := tab.Value(Key{0, id})
			if q > v+1e-12 {
				return false
			}
			if id == vm {
				found = true
				if q != v {
					return false
				}
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableUpdate(b *testing.B) {
	tab := NewTable(50, 15, rand.New(rand.NewSource(1)), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Add(Key{i % 50, i % 15}, 0.01)
	}
}

func BenchmarkEpsilonGreedySelect(b *testing.B) {
	tab := NewTable(50, 9, rand.New(rand.NewSource(1)), 1)
	vms := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	rng := rand.New(rand.NewSource(2))
	p := EpsilonGreedy{Epsilon: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Select(tab, i%50, vms, rng)
	}
}

func TestTDUpdateBasics(t *testing.T) {
	tab := NewTable(1, 1, nil, 0)
	k := Key{0, 0}
	// α=1, γ=0: Q jumps straight to the reward.
	if got := tab.TDUpdate(k, 1, 5, 0, 99); got != 5 {
		t.Fatalf("TDUpdate = %v, want 5", got)
	}
	// α=0: no change.
	if got := tab.TDUpdate(k, 0, -100, 1, -100); got != 5 {
		t.Fatalf("α=0 changed Q: %v", got)
	}
	// Bootstrapping: α=1, γ=1 → reward + next.
	if got := tab.TDUpdate(k, 1, 1, 1, 2); got != 3 {
		t.Fatalf("bootstrap TDUpdate = %v, want 3", got)
	}
}

// Property: on a two-armed bandit (γ=0) with deterministic rewards,
// repeated TD updates converge each arm's Q to its reward for any
// α ∈ (0, 1].
func TestPropertyTDConvergesOnBandit(t *testing.T) {
	f := func(seed int64, rawAlpha uint8) bool {
		alpha := float64(rawAlpha%100+1) / 100
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(1, 2, rng, 1)
		good, bad := Key{0, 1}, Key{0, 0}
		for i := 0; i < 1500; i++ {
			tab.TDUpdate(good, alpha, 1, 0, 0)
			tab.TDUpdate(bad, alpha, -1, 0, 0)
		}
		// α as low as 0.01 contracts the initial error by (1-α)^1500
		// ≈ 3e-7; allow generous numerical slack.
		if math.Abs(tab.Value(good)-1) > 0.01 || math.Abs(tab.Value(bad)+1) > 0.01 {
			return false
		}
		vm, _ := tab.Best(0, []int{0, 1})
		return vm == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with γ<1 and bounded rewards, Q values stay bounded by
// |r|max / (1-γ) under self-consistent bootstrapping.
func TestPropertyTDBounded(t *testing.T) {
	f := func(seed int64, rawGamma uint8) bool {
		gamma := float64(rawGamma%90) / 100 // [0, 0.9)
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(2, 2, rng, 1)
		keys := []Key{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
		bound := 1/(1-gamma) + 1 // +1 covers random init
		for i := 0; i < 2000; i++ {
			k := keys[rng.Intn(len(keys))]
			reward := 1.0
			if rng.Intn(2) == 0 {
				reward = -1
			}
			var next float64
			for _, kk := range keys {
				if v := tab.Value(kk); v > next {
					next = v
				}
			}
			if v := tab.TDUpdate(k, 0.5, reward, gamma, next); math.Abs(v) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

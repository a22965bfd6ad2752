package sim

import (
	"math/rand"
	"testing"

	"reassign/internal/cloud"
)

// countingSource counts the seedings the lazy source passes through.
type countingSource struct {
	rand.Source64
	seeds int
}

func (c *countingSource) Seed(seed int64) {
	c.seeds++
	c.Source64.Seed(seed)
}

// TestLazySourceStream: once drawn from, the lazy source is
// rand.NewSource(seed) — same Int63, Float64 and NormFloat64 values —
// across re-seedings of one source, as the engine re-seeds per run.
func TestLazySourceStream(t *testing.T) {
	lazy := rand.New(&lazySource{})
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		lazy.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if g, w := lazy.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
			}
			if g, w := lazy.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
			}
			if g, w := lazy.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, g, w)
			}
			if g, w := lazy.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestLazySourceSeedsOnlyWhenDrawn: re-seeding without drawing costs
// nothing, and the first draw after any number of Seed calls seeds
// once, with the last seed.
func TestLazySourceSeedsOnlyWhenDrawn(t *testing.T) {
	inner := &countingSource{Source64: rand.NewSource(99).(rand.Source64)}
	lazy := rand.New(&lazySource{src: inner})
	for seed := int64(0); seed < 100; seed++ {
		lazy.Seed(seed)
	}
	if inner.seeds != 0 {
		t.Fatalf("%d seedings with no draw, want 0", inner.seeds)
	}
	if g, w := lazy.Int63(), rand.New(rand.NewSource(99)).Int63(); g != w {
		t.Fatalf("first draw = %d, want seed 99's %d", g, w)
	}
	lazy.Int63()
	if inner.seeds != 1 {
		t.Fatalf("%d seedings after two draws, want 1", inner.seeds)
	}
}

// TestEngineSeedsOnlyWhenDrawn is the same claim end to end: a run
// with no stochastic model never seeds; one with fluctuation does.
func TestEngineSeedsOnlyWhenDrawn(t *testing.T) {
	w := chain(5, 5, 5)
	fleet := testFleet16()
	eng, err := NewEngine(w, fleet, &greedyFirst{}, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingSource{Source64: rand.NewSource(0).(rand.Source64)}
	eng.rng = rand.New(&lazySource{src: inner})
	for run := 0; run < 3; run++ {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Reset(Config{Seed: int64(run)}); err != nil {
			t.Fatal(err)
		}
	}
	if inner.seeds != 0 {
		t.Fatalf("%d seedings over three draw-free runs, want 0", inner.seeds)
	}
	fluct := cloud.DefaultFluctuation()
	if err := eng.Reset(Config{Seed: 3, Fluct: &fluct}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner.seeds != 1 {
		t.Fatalf("%d seedings for one fluctuating run, want 1", inner.seeds)
	}
}

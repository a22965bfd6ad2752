package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestWindowBounds(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 10; i++ {
		w.Add(float64(i))
	}
	if len(w.buf) != 4 {
		t.Fatalf("window holds %d samples, want 4", len(w.buf))
	}
	got := w.Samples()
	for i, want := range []float64{6, 7, 8, 9} {
		if got[i] != want {
			t.Fatalf("window kept %v, want the newest four samples oldest first", got)
		}
	}
}

// TestWindowGrowsOnDemand: a fresh window holding one sample has not
// allocated its bound, and a full one holds exactly its bound.
func TestWindowGrowsOnDemand(t *testing.T) {
	const bound = 8192
	w := NewWindow(bound)
	w.Add(1)
	if c := cap(w.buf); c >= bound {
		t.Fatalf("one sample allocated %d slots of a %d bound", c, bound)
	}
	for i := 0; i < 3*bound; i++ {
		w.Add(float64(i))
	}
	if len(w.buf) != bound || cap(w.buf) != bound {
		t.Fatalf("full window len %d cap %d, want %d", len(w.buf), cap(w.buf), bound)
	}
	odd := NewWindow(3)
	for i := 0; i < 5; i++ {
		odd.Add(float64(i))
	}
	if cap(odd.buf) != 3 {
		t.Fatalf("bound-3 window grew to %d slots", cap(odd.buf))
	}
}

// TestWindowSummaryMatchesNewest: a wrapped window summarises exactly
// the newest bound samples, in arrival order, bit for bit.
func TestWindowSummaryMatchesNewest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const bound = 100
	w := NewWindow(bound)
	var all []float64
	for i := 0; i < 257; i++ {
		v := rng.NormFloat64() * 1e3
		all = append(all, v)
		w.Add(v)
	}
	if got, want := w.Summary(), Summarize(all[len(all)-bound:]); got != want {
		t.Fatalf("window summary %+v, want %+v", got, want)
	}
	if s := NewWindow(5).Summary(); s != (Summary{}) {
		t.Fatalf("empty window summary %+v", s)
	}
}

// TestSummarizeMatchesParts: Summarize sorts one copy for its three
// percentiles; every field stays bit-identical to the standalone
// function, and the input is left untouched.
func TestSummarizeMatchesParts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n < 300; n += 37 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 17
		}
		orig := append([]float64(nil), xs...)
		s := Summarize(xs)
		want := Summary{
			N: n, Mean: Mean(xs), Std: StdDev(xs), Min: Min(xs), Max: Max(xs),
			P50: Percentile(xs, 50), P95: Percentile(xs, 95), P99: Percentile(xs, 99),
		}
		if s != want {
			t.Fatalf("n=%d: Summarize %+v, parts %+v", n, s, want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("n=%d: Summarize reordered its input", n)
			}
		}
	}
}

package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
	if s.Steps() != 0 {
		t.Fatalf("Steps() = %d, want 0", s.Steps())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", s.Now())
	}
}

func TestTieBreakByPriorityThenSeq(t *testing.T) {
	s := New()
	var got []string
	s.AtPriority(1, 5, func() { got = append(got, "p5-first") })
	s.AtPriority(1, 1, func() { got = append(got, "p1") })
	s.AtPriority(1, 5, func() { got = append(got, "p5-second") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p1", "p5-first", "p5-second"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var at float64 = -1
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestHorizonStopsRun(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{1, 2, 3} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.SetHorizon(2)
	if err := s.Run(); err != ErrHorizon {
		t.Fatalf("Run() = %v, want ErrHorizon", err)
	}
	if len(got) != 2 {
		t.Fatalf("executed %d events, want 2", len(got))
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.SetHorizon(0) // remove bound
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("executed %d events after unbounding, want 3", len(got))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	s.At(1, nil)
}

func TestNaNTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time did not panic")
		}
	}()
	s.At(math.NaN(), func() {})
}

func TestReset(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	s.Step()
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Steps() != 0 {
		t.Fatalf("Reset left state now=%v pending=%d steps=%d", s.Now(), s.Pending(), s.Steps())
	}
}

func TestStepReturnsFalseOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestStepsCountsExecutedOnly(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	s.SetHorizon(1.5)
	if err := s.Run(); err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	if s.Steps() != 1 || s.Stats().Scheduled != 2 {
		t.Fatalf("Steps() = %d, Scheduled = %d, want 1 and 2", s.Steps(), s.Stats().Scheduled)
	}
}

// Property: for any set of event times, execution order is the sorted
// order of the times (stable by insertion for equal times).
func TestPropertyExecutionOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		times := make([]float64, len(raw))
		for i, r := range raw {
			times[i] = float64(r)
		}
		var got []float64
		for _, tm := range times {
			tm := tm
			s.At(tm, func() { got = append(got, tm) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		want := append([]float64(nil), times...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never moves backwards during any run.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := -1.0
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if depth < 3 && rng.Intn(2) == 0 {
				s.After(rng.Float64()*10, func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < int(n)%32; i++ {
			s.At(rng.Float64()*100, func() { spawn(0) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical event traces, including
// dynamically scheduled events (determinism guarantee).
func TestPropertyDeterministicReplay(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var trace []float64
		var gen func(depth int)
		gen = func(depth int) {
			trace = append(trace, s.Now())
			if depth < 4 {
				for i := 0; i < rng.Intn(3); i++ {
					s.After(rng.Float64()*5, func() { gen(depth + 1) })
				}
			}
		}
		for i := 0; i < 5; i++ {
			s.At(rng.Float64()*10, func() { gen(0) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 1024)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, tm := range times {
			s.At(tm, func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Example drives a tiny simulation: two events, one of which
// schedules a third relative to the clock.
func Example() {
	s := New()
	s.At(1, func() { fmt.Println("first at", s.Now()) })
	var tick Handler
	tick = func() {
		fmt.Println("tick at", s.Now())
		if s.Now() < 4 {
			s.After(2, tick)
		}
	}
	s.At(2, tick)
	if err := s.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// first at 1
	// tick at 2
	// tick at 4
}

func TestStatsCounters(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(float64(i+1), func() {})
	}
	st := s.Stats()
	if st.Scheduled != 5 || st.Steps != 0 {
		t.Fatalf("before run: %+v", st)
	}
	if st.MaxQueueDepth != 5 {
		t.Fatalf("MaxQueueDepth = %d, want 5", st.MaxQueueDepth)
	}
	// Nothing has executed yet, so nothing can have been recycled.
	if st.FreelistHits != 0 || st.FreelistMisses != 5 {
		t.Fatalf("freelist before run: %+v", st)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// Executed events return to the freelist: the next schedules are
	// hits, and the high-water mark is unchanged.
	for i := 0; i < 3; i++ {
		s.At(s.Now()+float64(i+1), func() {})
	}
	st = s.Stats()
	if st.Steps != 5 || st.Scheduled != 8 {
		t.Fatalf("after run: %+v", st)
	}
	if st.FreelistHits != 3 || st.FreelistMisses != 5 {
		t.Fatalf("freelist after reschedule: %+v", st)
	}
	if got := st.FreelistHitRate(); got != 3.0/8 {
		t.Fatalf("FreelistHitRate = %v, want 0.375", got)
	}
	if st.MaxQueueDepth != 5 {
		t.Fatalf("MaxQueueDepth moved to %d", st.MaxQueueDepth)
	}
}

func TestStatsResetClears(t *testing.T) {
	s := New()
	s.At(1, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("Reset left stats %+v", got)
	}
}

func TestStatsZeroRate(t *testing.T) {
	if (Stats{}).FreelistHitRate() != 0 {
		t.Fatal("empty hit rate must be 0, not NaN")
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/des"
	"reassign/internal/metrics"
	"reassign/internal/rl"
	"reassign/internal/sim"
)

// rewardValue decodes one float from a byte: a special value (±0,
// NaN, ±Inf, the extremes) or a point of a coarse grid from -14.75 to
// 15.875 in steps of 1/8, so equal values and ties between pi and pw
// come up often.
func rewardValue(b byte) float64 {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, -1e300}
	if int(b) < len(specials) {
		return specials[b]
	}
	return float64(int(b)-128) / 8
}

// FuzzSignFirstReward: over a sequence of completions that insert and
// overwrite entries of the performance-index vector, the reward
// OnTaskComplete computes — which skips the standard deviation when
// pi ≤ pw — equals CrispReward(pi, pw, StdDev(vector)) every time.
// Each step is three bytes: a VM position, pi and pw (rewardValue).
func FuzzSignFirstReward(f *testing.F) {
	// pi ≤ pw in every form: equal, ±0 against each other, -Inf.
	f.Add([]byte{0, 136, 136, 1, 1, 0, 2, 0, 1, 0, 4, 3, 3, 4, 4})
	// NaN and +Inf on either side; then, with a NaN index in the
	// vector (a NaN deviation), pi ≤ pw and pi > pw.
	f.Add([]byte{0, 2, 136, 1, 136, 2, 2, 3, 136, 3, 136, 3, 4, 136, 150, 5, 150, 136})
	// pi just above pw: -1 with a single index (deviation 0), then +1
	// once a second index at 10 raises the deviation to 4.5. A reward
	// that kept the previous completion's deviation would answer -1.
	f.Add([]byte{0, 136, 128, 1, 208, 200})
	// Grid values over all six positions, with overwrites.
	f.Add([]byte{3, 17, 34, 5, 127, 128, 3, 17, 35, 0, 255, 254, 2, 48, 48, 5, 64, 63,
		1, 200, 100, 4, 90, 91, 0, 11, 250, 3, 129, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nVMs = 6
		s := &Scheduler{perfSlot: []int{-1, -1, -1, -1, -1, -1}} // as Prepare leaves it
		for step := 0; step+2 < len(data); step += 3 {
			pos := int(data[step]) % nVMs
			pi, pw := rewardValue(data[step+1]), rewardValue(data[step+2])
			s.setPerf(pos, pi)
			got := s.crispReward(pi, pw)
			want := CrispReward(pi, pw, metrics.StdDev(s.perfBuf))
			if got != want {
				t.Fatalf("step %d: pi %v, pw %v, indices %v: sign-first reward %v, CrispReward %v",
					step/3, pi, pw, s.perfBuf, got, want)
			}
		}
	})
}

// refTDSorter is the order FlushTD applied deferred writes in before
// they moved to per-activation slots: all of a table's buffered writes
// sorted by (task, VM), table before tableB. It is the reference the
// slot flush must match.
type refTDSorter []rl.Entry

func (s refTDSorter) Len() int      { return len(s) }
func (s refTDSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s refTDSorter) Less(i, j int) bool {
	if s[i].Key.Task != s[j].Key.Task {
		return s[i].Key.Task < s[j].Key.Task
	}
	return s[i].Key.VM < s[j].Key.VM
}

// tableBits returns a table's materialised entries as exact bits.
func tableBits(tab *rl.Table) map[rl.Key]uint64 {
	m := make(map[rl.Key]uint64)
	for _, e := range tab.Snapshot() {
		m[e.Key] = math.Float64bits(e.Value)
	}
	return m
}

// checkFlushed requires tab to hold before with buf applied in the
// reference order, plus whatever the episode materialised by reading.
func checkFlushed(t *testing.T, what string, tab *rl.Table, before map[rl.Key]uint64, buf []rl.Entry) {
	t.Helper()
	want := make(map[rl.Key]uint64, len(before))
	for k, v := range before {
		want[k] = v
	}
	sort.Sort(refTDSorter(buf))
	for _, e := range buf {
		want[e.Key] = math.Float64bits(e.Value)
	}
	matched := 0
	for k, v := range tableBits(tab) {
		w, ok := want[k]
		if !ok {
			continue // materialised by a read this episode, never written
		}
		if v != w {
			t.Fatalf("%s: Q(%d, %d) = %v, the sorted-buffer flush gives %v",
				what, k.Task, k.VM, math.Float64frombits(v), math.Float64frombits(w))
		}
		matched++
	}
	if matched != len(want) {
		t.Fatalf("%s: %d of %d expected entries present", what, matched, len(want))
	}
}

// TestTDSlotsMatchSortedFlush runs learning episodes, complete and
// stopped at their horizon, under Q-learning and DoubleQ, and after
// each flush holds both tables to what the old buffered flush gives
// for the same deferred writes: every written entry carries its TD
// value, in the table that chose it, and every other entry is as it
// was. An aborted episode keeps its writes in the slots until FlushTD.
func TestTDSlotsMatchSortedFlush(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	fluct := cloud.DefaultFluctuation()
	abort := sim.Config{Horizon: 150}
	cases := []struct {
		name string
		rule UpdateRule
		cfgs []sim.Config
	}{
		{"doubleq", DoubleQ, []sim.Config{{Fluct: &fluct}, {}}},
		{"doubleq-aborted", DoubleQ, []sim.Config{abort, {Fluct: &fluct}}},
		{"qlearning-aborted", QLearning, []sim.Config{abort, {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.Rule = tc.rule
			table := rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(23)), 1.0)
			agent, err := NewScheduler(params, table, rand.New(rand.NewSource(0)))
			if err != nil {
				t.Fatal(err)
			}
			var tableB *rl.Table
			if tc.rule == DoubleQ {
				tableB = rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(77)), 1.0)
				agent.WithSecondTable(tableB)
			}
			var bufA, bufB []rl.Entry
			agent.checkTD = func(tab *rl.Table, e rl.Entry) {
				switch tab {
				case table:
					bufA = append(bufA, e)
				case tableB:
					bufB = append(bufB, e)
				default:
					t.Fatalf("TD write to a table the agent does not own")
				}
			}
			var aborted, writesB int
			var eng *sim.Engine
			for ep := 0; ep < 6; ep++ {
				if err := agent.reset(params, int64(1000+ep)); err != nil {
					t.Fatal(err)
				}
				agent.FlushTD()
				beforeA := tableBits(table)
				var beforeB map[rl.Key]uint64
				if tableB != nil {
					beforeB = tableBits(tableB)
				}
				bufA, bufB = bufA[:0], bufB[:0]
				cfg := tc.cfgs[ep%len(tc.cfgs)]
				cfg.Seed = int64(2000 + ep)
				cfg.SkipPlan = true
				if eng == nil {
					if eng, err = sim.NewEngine(w, fl, agent, cfg); err != nil {
						t.Fatal(err)
					}
				} else {
					eng.Reset(cfg)
				}
				_, err = eng.Run()
				if cfg.Horizon > 0 && errors.Is(err, des.ErrHorizon) {
					aborted++
					if got, want := agent.tdN, len(bufA)+len(bufB); got != want || want == 0 {
						t.Fatalf("episode %d stopped at its horizon with %d slot writes, %d deferred", ep, got, want)
					}
					agent.FlushTD()
				} else if err != nil {
					t.Fatal(err)
				}
				checkFlushed(t, "table", table, beforeA, bufA)
				if tableB != nil {
					checkFlushed(t, "tableB", tableB, beforeB, bufB)
				}
				writesB += len(bufB)
				if agent.tdN != 0 {
					t.Fatalf("episode %d: %d writes counted after the flush", ep, agent.tdN)
				}
				for i, sl := range agent.td {
					if sl.tab != tdNone {
						t.Fatalf("episode %d: activation %d's slot still holds a write after the flush", ep, i)
					}
				}
			}
			if wantAbort := tc.cfgs[0].Horizon > 0; wantAbort != (aborted > 0) {
				t.Fatalf("%d episodes stopped at their horizon", aborted)
			}
			if tc.rule == DoubleQ && writesB == 0 {
				t.Fatal("DoubleQ never wrote the second table")
			}
		})
	}
}

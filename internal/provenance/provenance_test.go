package provenance

import (
	"bytes"
	"encoding/csv"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func exec(run, task, act string, vm int, ready, start, finish float64, ok bool) Execution {
	return Execution{
		WorkflowName: "w", RunID: run, TaskID: task, Activity: act,
		VMID: vm, VMType: "t2.micro",
		ReadyAt: ready, StartAt: start, FinishAt: finish, Attempts: 1, Success: ok,
	}
}

func TestAddAndQuery(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	s.Add(exec("r1", "t1", "a", 0, 0, 1, 5, true))
	s.Add(exec("r1", "t2", "a", 1, 0, 2, 4, true))
	s.Add(exec("r2", "t1", "b", 0, 0, 0, 3, true))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := len(s.ByRun("r1")); got != 2 {
		t.Fatalf("ByRun(r1) = %d", got)
	}
	runs := s.Runs()
	if len(runs) != 2 || runs[0] != "r1" || runs[1] != "r2" {
		t.Fatalf("Runs = %v", runs)
	}
	// Records carry a wall timestamp.
	if s.All()[0].Wall == 0 {
		t.Fatal("Wall not stamped")
	}
}

func TestQueueAndExecTimes(t *testing.T) {
	e := exec("r", "t", "a", 0, 1, 3, 8, true)
	if e.QueueTime() != 2 {
		t.Fatalf("QueueTime = %v", e.QueueTime())
	}
	if e.ExecTime() != 5 {
		t.Fatalf("ExecTime = %v", e.ExecTime())
	}
}

func TestAggregateByVM(t *testing.T) {
	s := NewStore()
	s.Add(exec("r1", "t1", "a", 0, 0, 1, 5, true))  // exec 4, wait 1
	s.Add(exec("r1", "t2", "a", 0, 0, 3, 9, true))  // exec 6, wait 3
	s.Add(exec("r1", "t3", "a", 1, 0, 0, 2, true))  // exec 2, wait 0
	s.Add(exec("r1", "t4", "a", 0, 0, 0, 9, false)) // failed, excluded
	s.Add(exec("r2", "t5", "a", 0, 0, 0, 100, true))

	aggs := s.AggregateByVM("r1")
	if len(aggs) != 2 {
		t.Fatalf("aggs = %v", aggs)
	}
	if aggs[0].VMID != 0 || aggs[0].N != 2 {
		t.Fatalf("vm0 agg = %+v", aggs[0])
	}
	if math.Abs(aggs[0].MeanExec-5) > 1e-9 || math.Abs(aggs[0].MeanWait-2) > 1e-9 {
		t.Fatalf("vm0 means = %+v", aggs[0])
	}
	if aggs[1].VMID != 1 || aggs[1].MeanExec != 2 {
		t.Fatalf("vm1 agg = %+v", aggs[1])
	}
	// All runs.
	all := s.AggregateByVM("")
	if all[0].N != 3 {
		t.Fatalf("all-runs vm0 N = %d", all[0].N)
	}
}

func TestAggregateByActivity(t *testing.T) {
	s := NewStore()
	s.Add(exec("r1", "t1", "mAdd", 0, 0, 0, 10, true))
	s.Add(exec("r1", "t2", "mAdd", 1, 0, 0, 20, true))
	s.Add(exec("r1", "t3", "mJPEG", 1, 0, 0, 2, true))
	aggs := s.AggregateByActivity("r1")
	if len(aggs) != 2 {
		t.Fatalf("aggs = %v", aggs)
	}
	if aggs[0].Activity != "mAdd" || aggs[0].N != 2 || aggs[0].MeanExec != 15 {
		t.Fatalf("mAdd agg = %+v", aggs[0])
	}
}

func TestMakespan(t *testing.T) {
	s := NewStore()
	if s.Makespan("") != 0 {
		t.Fatal("empty makespan != 0")
	}
	s.Add(exec("r1", "t1", "a", 0, 1, 2, 10, true))
	s.Add(exec("r1", "t2", "a", 0, 3, 12, 25, true))
	if got := s.Makespan("r1"); got != 24 {
		t.Fatalf("Makespan = %v, want 24", got)
	}
	if got := s.Makespan("missing"); got != 0 {
		t.Fatalf("missing run makespan = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(exec("r1", "t1", "a", 0, 0, 1, 5, true))
	s.Add(exec("r1", "t2", "b", 1, 0, 2, 4, false))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("loaded %d records", s2.Len())
	}
	a, b := s.All(), s2.All()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, a[i], b[i])
		}
	}
	if err := s2.Load(bytes.NewBufferString("nope")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.json")
	s := NewStore()
	s.Add(exec("r1", "t1", "a", 0, 0, 1, 5, true))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("loaded %d", s2.Len())
	}
	if err := s2.LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestConcurrentAdds(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const writers, each = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Add(exec("r", "t", "a", w, 0, 1, 2, true))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*each {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*each)
	}
	aggs := s.AggregateByVM("")
	if len(aggs) != writers {
		t.Fatalf("aggs = %d", len(aggs))
	}
}

// Property: aggregates over a run partition the successful records of
// that run.
func TestPropertyAggregatesPartition(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewStore()
		wantSuccess := 0
		for i, r := range raw {
			ok := r%3 != 0
			if ok {
				wantSuccess++
			}
			s.Add(exec("r", "t", "a", int(r%5), 0, float64(i), float64(i)+1, ok))
		}
		total := 0
		for _, a := range s.AggregateByVM("r") {
			total += a.N
		}
		return total == wantSuccess
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVExport(t *testing.T) {
	s := NewStore()
	s.Add(exec("r1", "t1", "mAdd", 3, 0, 1, 5, true))
	s.Add(exec("r1", "t2", "mJPEG", 8, 2, 3, 4, false))
	var buf bytes.Buffer
	if err := s.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "workflow" || len(rows[0]) != 11 {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][3] != "mAdd" || rows[1][4] != "3" || rows[1][10] != "true" {
		t.Fatalf("row 1 = %v", rows[1])
	}
	if rows[2][10] != "false" {
		t.Fatalf("row 2 = %v", rows[2])
	}
}

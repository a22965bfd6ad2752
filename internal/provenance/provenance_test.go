package provenance

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"sync"
	"testing"
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
	if all := s.All(); all[0].TaskID != "t1" || all[2].RunID != "r2" {
		t.Fatalf("All = %+v, want insertion order", all)
	}
	// Records carry a wall timestamp.
	if s.All()[0].Wall == 0 {
		t.Fatal("Wall not stamped")
	}
}

func TestQueueAndExecTimes(t *testing.T) {
	e := exec("r", "t", "a", 0, 1, 3, 8, true)
	if e.ExecTime() != 5 {
		t.Fatalf("ExecTime = %v", e.ExecTime())
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
	perVM := make(map[int]int)
	for _, e := range s.All() {
		perVM[e.VMID]++
	}
	for w := 0; w < writers; w++ {
		if perVM[w] != each {
			t.Fatalf("writer %d stored %d records, want %d", w, perVM[w], each)
		}
	}
}

func TestCSVExport(t *testing.T) {
	s := NewStore()
	s.Add(exec("r1", "t1", "mAdd", 3, 0, 1, 5, true))
	s.Add(exec("r1", "t2", "mJPEG", 8, 2, 3, 4, false))
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf, false); err != nil {
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

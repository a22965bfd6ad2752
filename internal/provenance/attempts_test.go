package provenance

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func TestAttemptsRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(Execution{RunID: "r", TaskID: "a", Activity: "act", VMID: 1,
		StartAt: 0, FinishAt: 10, Attempts: 2, Success: true})
	s.AddAttempt(Attempt{RunID: "r", TaskID: "a", Activity: "act",
		Number: 1, VMID: 1, Worker: 0, StartAt: 0, EndAt: 4,
		Outcome: "failed", Error: "boom"})
	s.AddAttempt(Attempt{RunID: "r", TaskID: "a", Activity: "act",
		Number: 2, VMID: 1, Worker: 0, StartAt: 5, EndAt: 10, Outcome: "ok"})

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// With attempts present, the object form is used.
	if !strings.Contains(buf.String(), `"attempts"`) {
		t.Fatalf("save did not use the object form: %s", buf.String())
	}
	loaded := NewStore()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 || len(loaded.Attempts()) != 2 {
		t.Fatalf("loaded %d executions, %d attempts", loaded.Len(), len(loaded.Attempts()))
	}
	got := loaded.Attempts()
	if len(got) != 2 || got[0].Outcome != "failed" || got[1].Outcome != "ok" {
		t.Fatalf("attempt history = %+v", got)
	}
	if got[0].Error != "boom" || got[0].Number != 1 {
		t.Fatalf("first attempt = %+v", got[0])
	}
}

func TestAttemptFreeStoreKeepsLegacyEncoding(t *testing.T) {
	s := NewStore()
	s.SetNow(func() time.Time { return time.Unix(0, 0) })
	s.Add(Execution{RunID: "r", TaskID: "a", Success: true})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// No attempts: the legacy plain-array form, so stores written by
	// older code and readers of it keep working.
	if !strings.HasPrefix(strings.TrimSpace(buf.String()), "[") {
		t.Fatalf("attempt-free save is not a JSON array: %s", buf.String())
	}
	loaded := NewStore()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 || len(loaded.Attempts()) != 0 {
		t.Fatalf("legacy round-trip: %d executions, %d attempts",
			loaded.Len(), len(loaded.Attempts()))
	}
}

func TestSetNowMakesStampsDeterministic(t *testing.T) {
	fixed := time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)
	save := func() string {
		s := NewStore()
		s.SetNow(func() time.Time { return fixed })
		s.Add(Execution{RunID: "r", TaskID: "a"})
		s.AddAttempt(Attempt{RunID: "r", TaskID: "a", Number: 1, Outcome: "ok"})
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := save(), save()
	if a != b {
		t.Fatal("stores with a fixed clock serialise differently")
	}
	if !strings.Contains(a, "2026-02-03T04:05:06Z") {
		t.Fatalf("fixed stamp missing: %s", a)
	}
}

func TestWriteCSVWithAttempts(t *testing.T) {
	s := NewStore()
	s.Add(Execution{WorkflowName: "wf", RunID: "r", TaskID: "a",
		Activity: "act", VMID: 1, FinishAt: 10, Attempts: 2, Success: true})
	s.AddAttempt(Attempt{RunID: "r", TaskID: "a", Activity: "act",
		Number: 1, VMID: 1, Worker: 3, EndAt: 4, Outcome: "failed", Error: "x"})

	// Legacy CSV is unchanged: no kind column.
	var legacy bytes.Buffer
	if err := s.WriteCSV(&legacy, false); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(legacy.String(), "kind") {
		t.Fatalf("legacy CSV gained a kind column: %s", legacy.String())
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + execution + attempt
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "kind" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "execution" || rows[2][0] != "attempt" {
		t.Fatalf("kinds = %q, %q", rows[1][0], rows[2][0])
	}
	// The attempt row carries worker and outcome in the new columns.
	h := rows[0]
	idx := func(name string) int {
		for i, c := range h {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from %v", name, h)
		return -1
	}
	if rows[2][idx("worker")] != "3" || rows[2][idx("outcome")] != "failed" ||
		rows[2][idx("attempt")] != "1" || rows[2][idx("error")] != "x" {
		t.Fatalf("attempt row = %v", rows[2])
	}
}

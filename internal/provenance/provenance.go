// Package provenance is the execution-history store of the
// SciCumulus-RL pipeline (Figure 1's provenance database, rebuilt on
// JSON files instead of PostgreSQL). It records every activation
// execution — VM, queue/start/finish times, status — and its attempt
// history, and saves both as JSON or CSV. Stored histories seed future
// ReASSIgN runs, the paper's cross-execution learning loop.
package provenance

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Stamp is a record's wall-clock storage time in whole Unix seconds.
// It encodes as RFC 3339 text in UTC — the form records have always
// carried — so a record is eight bytes of stamp in memory and the same
// JSON on the wire. The zero Stamp means "not stamped" and is omitted
// by the records' omitempty tags.
type Stamp int64

// StampOf returns t's Stamp, truncated to the second.
func StampOf(t time.Time) Stamp { return Stamp(t.Unix()) }

// Time returns the stamp as a UTC time.
func (s Stamp) Time() time.Time { return time.Unix(int64(s), 0).UTC() }

// MarshalText renders the stamp as RFC 3339 text.
func (s Stamp) MarshalText() ([]byte, error) {
	return s.Time().AppendFormat(make([]byte, 0, len(time.RFC3339)), time.RFC3339), nil
}

// UnmarshalText parses RFC 3339 text; the empty string is the zero
// Stamp.
func (s *Stamp) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*s = 0
		return nil
	}
	t, err := time.Parse(time.RFC3339, string(b))
	if err != nil {
		return fmt.Errorf("provenance: wall stamp: %w", err)
	}
	*s = StampOf(t)
	return nil
}

// Execution is one provenance record.
type Execution struct {
	WorkflowName string  `json:"workflow"`
	RunID        string  `json:"run_id"`
	TaskID       string  `json:"task_id"`
	Activity     string  `json:"activity"`
	VMID         int     `json:"vm_id"`
	VMType       string  `json:"vm_type"`
	ReadyAt      float64 `json:"ready_at"`
	StartAt      float64 `json:"start_at"`
	FinishAt     float64 `json:"finish_at"`
	Attempts     int     `json:"attempts"`
	Success      bool    `json:"success"`
	// Wall records when the record was stored.
	Wall Stamp `json:"wall,omitempty"`
}

// ExecTime returns te_i for the record.
func (e Execution) ExecTime() float64 { return e.FinishAt - e.StartAt }

// Attempt is one execution attempt of an activation — including
// retries, expiries and abandons — as recorded by the execution-stage
// master. The final outcome of an activation is summarised in its
// Execution row; attempts keep the full failure history that retry
// policies and reliability studies need.
type Attempt struct {
	RunID    string `json:"run_id"`
	TaskID   string `json:"task_id"`
	Activity string `json:"activity"`
	// Number is 1-based: the first dispatch is attempt 1.
	Number int `json:"attempt"`
	VMID   int `json:"vm_id"`
	// Worker identifies the executing worker within the run's pool.
	Worker  int     `json:"worker"`
	StartAt float64 `json:"start_at"`
	EndAt   float64 `json:"end_at"`
	// Outcome is "ok", "failed", "expired", "lost" (worker died) or
	// "abandoned" (attempt budget exhausted).
	Outcome string `json:"outcome"`
	// Error carries the failure message for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Wall records when the record was stored.
	Wall Stamp `json:"wall,omitempty"`
}

// Store is an in-memory provenance database, safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	recs     []Execution
	attempts []Attempt
	now      func() time.Time
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// SetNow overrides the wall clock used to stamp records — tests
// inject a fixed clock so stored bytes are deterministic. A nil fn
// restores time.Now.
func (s *Store) SetNow(fn func() time.Time) {
	s.mu.Lock()
	s.now = fn
	s.mu.Unlock()
}

// stamp returns the wall-clock stamp under s.mu (read or write lock).
func (s *Store) stamp() Stamp {
	fn := s.now
	if fn == nil {
		fn = time.Now
	}
	return StampOf(fn())
}

// Grow makes room for at least execs more execution records and
// attempts more attempt records, so a caller that knows a run's size
// appends them without the store doubling its way there.
func (s *Store) Grow(execs, attempts int) {
	s.mu.Lock()
	s.recs = slices.Grow(s.recs, execs)
	s.attempts = slices.Grow(s.attempts, attempts)
	s.mu.Unlock()
}

// Add appends one record, stamping Wall if unset.
func (s *Store) Add(e Execution) {
	s.mu.Lock()
	if e.Wall == 0 {
		e.Wall = s.stamp()
	}
	s.recs = append(s.recs, e)
	s.mu.Unlock()
}

// AddAttempt appends one attempt record, stamping Wall if unset.
func (s *Store) AddAttempt(a Attempt) {
	s.mu.Lock()
	if a.Wall == 0 {
		a.Wall = s.stamp()
	}
	s.attempts = append(s.attempts, a)
	s.mu.Unlock()
}

// Attempts returns a copy of every attempt record, in insertion order.
func (s *Store) Attempts() []Attempt {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Attempt(nil), s.attempts...)
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// All returns a copy of every record, in insertion order.
func (s *Store) All() []Execution {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Execution(nil), s.recs...)
}

// file is the on-disk object form, used whenever the store carries
// attempt history. Attempt-free stores keep the legacy plain-array
// encoding so existing files and consumers round-trip unchanged.
type file struct {
	Executions []Execution `json:"executions"`
	Attempts   []Attempt   `json:"attempts,omitempty"`
}

// Save writes the store as JSON. Stores without attempt records use
// the legacy array-of-executions form; stores with attempts use an
// object with "executions" and "attempts" keys. Load accepts both.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if len(s.attempts) == 0 {
		return enc.Encode(s.recs)
	}
	return enc.Encode(file{Executions: s.recs, Attempts: s.attempts})
}

// Load replaces the store contents from JSON, accepting both the
// legacy array form and the object form written for stores with
// attempt history.
func (s *Store) Load(r io.Reader) error {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("provenance: load: %w", err)
	}
	var recs []Execution
	var atts []Attempt
	if err := json.Unmarshal(raw, &recs); err != nil {
		var f file
		if err2 := json.Unmarshal(raw, &f); err2 != nil {
			return fmt.Errorf("provenance: load: %w", err)
		}
		recs, atts = f.Executions, f.Attempts
	}
	s.mu.Lock()
	s.recs = recs
	s.attempts = atts
	s.mu.Unlock()
	return nil
}

// SaveFile writes the store to a JSON file.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a store previously written by SaveFile.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}

// WriteCSV writes the store as CSV. With includeAttempts false the
// output is the legacy execution-row format. With it true, every row
// gains a leading "kind" column ("execution" or "attempt") plus the
// attempt-history columns (attempt, worker, outcome, error), and the
// per-attempt records follow the execution rows.
func (s *Store) WriteCSV(w io.Writer, includeAttempts bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cw := csv.NewWriter(w)
	header := []string{
		"workflow", "run_id", "task_id", "activity", "vm_id", "vm_type",
		"ready_at", "start_at", "finish_at", "attempts", "success",
	}
	if includeAttempts {
		header = append([]string{"kind"}, append(header, "attempt", "worker", "outcome", "error")...)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range s.recs {
		rec := []string{
			e.WorkflowName, e.RunID, e.TaskID, e.Activity,
			strconv.Itoa(e.VMID), e.VMType,
			strconv.FormatFloat(e.ReadyAt, 'f', -1, 64),
			strconv.FormatFloat(e.StartAt, 'f', -1, 64),
			strconv.FormatFloat(e.FinishAt, 'f', -1, 64),
			strconv.Itoa(e.Attempts),
			strconv.FormatBool(e.Success),
		}
		if includeAttempts {
			rec = append([]string{"execution"}, append(rec, "", "", "", "")...)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	if includeAttempts {
		for _, a := range s.attempts {
			rec := []string{
				"attempt",
				"", a.RunID, a.TaskID, a.Activity,
				strconv.Itoa(a.VMID), "",
				"",
				strconv.FormatFloat(a.StartAt, 'f', -1, 64),
				strconv.FormatFloat(a.EndAt, 'f', -1, 64),
				"", "",
				strconv.Itoa(a.Number),
				strconv.Itoa(a.Worker),
				a.Outcome,
				a.Error,
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

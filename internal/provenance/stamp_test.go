package provenance

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCheckedInFilesRoundTrip: every provenance file under testdata —
// written by the store when Wall was an RFC 3339 string — loads and
// saves back to the same bytes, so the int64 stamp changed nothing on
// disk or on the wire.
func TestCheckedInFilesRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no provenance files under testdata (%v)", err)
	}
	for _, path := range files {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		if err := s.Load(bytes.NewReader(want)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var got bytes.Buffer
		if err := s.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s does not round-trip:\n%s\nwant:\n%s", path, got.Bytes(), want)
		}
	}
}

func TestStampText(t *testing.T) {
	at := time.Date(2026, 2, 3, 4, 5, 6, 700_000_000, time.FixedZone("x", 3600))
	s := StampOf(at)
	b, err := json.Marshal(s)
	if err != nil || string(b) != `"2026-02-03T03:05:06Z"` {
		t.Fatalf("stamp encodes as %s (%v)", b, err)
	}
	var back Stamp
	if err := json.Unmarshal([]byte(`"2026-02-03T04:05:06+01:00"`), &back); err != nil || back != s {
		t.Fatalf("offset text decodes to %v (%v), want %v", back, err, s)
	}
	if err := json.Unmarshal([]byte(`"yesterday"`), &back); err == nil {
		t.Fatal("unparsable stamp accepted")
	}
	// An unstamped record carries no wall field at all.
	b, err = json.Marshal(Execution{TaskID: "a"})
	if err != nil || bytes.Contains(b, []byte("wall")) {
		t.Fatalf("zero stamp encoded: %s (%v)", b, err)
	}
}

// TestGrowPresizes: after Grow, a run of the announced size appends
// without reallocating either slice.
func TestGrowPresizes(t *testing.T) {
	s := NewStore()
	s.Add(Execution{TaskID: "before"})
	// AllocsPerRun calls the run twice: once to warm up, once measured.
	s.Grow(200, 300)
	if cap(s.recs) < 201 || cap(s.attempts) < 300 {
		t.Fatalf("capacities %d/%d after Grow(200, 300) on one record", cap(s.recs), cap(s.attempts))
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			s.Add(Execution{TaskID: "a", Wall: 1})
		}
		for i := 0; i < 150; i++ {
			s.AddAttempt(Attempt{TaskID: "a", Wall: 1})
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations appending into a grown store", allocs)
	}
}

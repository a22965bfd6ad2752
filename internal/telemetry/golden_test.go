package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden exposition files under testdata")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestWritePromGolden pins Snapshot.WriteProm byte for byte over a
// fixed event stream: every series name, HELP and TYPE line, their
// order and the formatting of integer and fractional values. Each
// episode carries one placement, greedy when i%3 != 0.
func TestWritePromGolden(t *testing.T) {
	a := NewAggregator()
	for i := 0; i < 37; i++ {
		greedy := 0
		if i%3 != 0 {
			greedy = 1
		}
		a.Emit(EpisodeEvent{
			Episode:          i,
			Reward:           float64(i%7) - 2.5 + float64(i)/3,
			Makespan:         1000 + float64(i*i)/7,
			QDelta:           1 / float64(i+1),
			Placements:       1,
			GreedyPlacements: greedy,
		})
	}
	a.Emit(EpisodeEvent{Episode: -1, Reward: 99, Makespan: 1})
	a.Emit(&KernelEvent{Events: 12345678, Scheduled: 23456789, FreelistHits: 1000000, FreelistMisses: 3, MaxQueueDepth: 4096})
	a.Emit(&KernelEvent{Events: 7, Scheduled: 9, FreelistHits: 2, FreelistMisses: 7, MaxQueueDepth: 12})

	var buf bytes.Buffer
	if err := a.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.prom", buf.Bytes())

	buf.Reset()
	if err := NewAggregator().Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "empty.prom", buf.Bytes())
}

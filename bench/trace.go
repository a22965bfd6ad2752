package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Spans of one job
// share Job; Parent is the ID of the span that caused this one (0 for
// a job's root). Times are microseconds since the recorder started. A
// layer's self time is its span minus the part its children cover.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Job     string  `json:"job"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the pass ends. A nil recorder
// records nothing, which is the untraced pass.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished span and returns its ID.
func (r *recorder) add(parent int, job, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		StartUS: float64(start.Sub(r.t0)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(r.t0)) / float64(time.Microsecond),
	})
	return id
}

// reserve allocates the ID of a span whose end is not known yet, so
// its children can name it; finish fills it in.
func (r *recorder) reserve(job, name string, start time.Time) int {
	return r.add(0, job, name, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndUS = float64(end.Sub(r.t0)) / float64(time.Microsecond)
	r.mu.Unlock()
}

// write stores the spans as <dir>/<workload>.trace.json.
func (r *recorder) write(dir, workload, env string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Env      string `json:"env"`
		Spans    []span `json:"spans"`
	}{workload, env, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), b, 0o644)
}

package metrics

// Window is a bounded sample store: it keeps the newest bound samples
// and overwrites the oldest beyond that, so a long-running process
// summarises a recent window instead of growing without limit. Its
// storage doubles on demand up to the bound: a window that has seen a
// handful of samples holds a handful. Not safe for concurrent use;
// callers hold their own lock.
type Window struct {
	buf   []float64
	bound int
	next  int // once full, the oldest sample: the next to be overwritten
}

// NewWindow returns an empty window keeping at most bound samples (at
// least one).
func NewWindow(bound int) *Window {
	return &Window{bound: max(bound, 1)}
}

// Add records one sample, evicting the oldest when the window is full.
func (w *Window) Add(v float64) {
	if len(w.buf) < w.bound {
		if len(w.buf) == cap(w.buf) {
			w.buf = append(make([]float64, 0, min(max(2*cap(w.buf), 16), w.bound)), w.buf...)
		}
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
}

// Samples returns a copy of the held samples, oldest first.
func (w *Window) Samples() []float64 {
	return append(append([]float64(nil), w.buf[w.next:]...), w.buf[:w.next]...)
}

// Summary summarises the held samples, oldest first: Summarize over
// the newest bound samples added.
func (w *Window) Summary() Summary { return Summarize(w.Samples()) }

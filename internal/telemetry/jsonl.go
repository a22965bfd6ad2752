package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// envelope is the JSONL wire format: one object per line with the
// event kind first, so traces can be filtered by kind without
// decoding the payload. Struct field order makes the encoding
// deterministic — a seeded run produces a byte-stable trace.
type envelope struct {
	Kind  string `json:"kind"`
	Event Event  `json:"event"`
}

// JSONL writes one JSON object per event to an io.Writer. It is safe
// for concurrent use; encoding errors are sticky and reported by Err
// (Emit cannot fail, matching the fire-and-forget Sink contract).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink writing to w. The caller owns w and
// any buffering/closing it needs.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(envelope{Kind: e.Kind(), Event: e})
}

// WantsDecisions implements the optional Sink method: a trace records
// every scheduling decision.
func (s *JSONL) WantsDecisions() bool { return true }

// Err returns the first encoding or write error, if any.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

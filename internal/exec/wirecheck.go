package exec

import (
	"context"
	"fmt"
)

// WireCheck wraps a Transport and round-trips every task dispatch and
// every result/heartbeat event through the wire codec — encode, then
// decode, then deliver the decoded struct. Over the deterministic
// InProc transport this is the codec determinism oracle: a seeded run
// must produce byte-identical provenance whether messages pass
// through the codec or not, which pins the codec to the in-process
// semantics without the wall-clock nondeterminism of real sockets.
type WireCheck struct {
	Inner Transport
}

// roundTrip encodes m's payload and decodes it back into m.
func (t *WireCheck) roundTrip(m *wireMsg) error {
	return decodeWirePayload(appendWirePayload(nil, m), m, nil)
}

// Open implements Transport.
func (t *WireCheck) Open(ctx context.Context) ([]int, error) { return t.Inner.Open(ctx) }

// Send implements Transport: the TaskSpec the inner transport sees is
// the one that survived the wire.
func (t *WireCheck) Send(worker int, spec TaskSpec) error {
	m := wireMsg{Type: msgTask, Task: &spec}
	if err := t.roundTrip(&m); err != nil {
		return fmt.Errorf("exec: wirecheck task: %w", err)
	}
	if m.Task == nil {
		return fmt.Errorf("exec: wirecheck task lost its spec")
	}
	return t.Inner.Send(worker, *m.Task)
}

// Next implements Transport: result and heartbeat events pass through
// the codec the way a TCP reader would receive them (time and worker
// are stamped by the receiver, not carried on the wire).
func (t *WireCheck) Next(ctx context.Context, deadline float64) (Event, error) {
	ev, err := t.Inner.Next(ctx, deadline)
	if err != nil {
		return ev, err
	}
	switch ev.Kind {
	case EvResult:
		m := wireMsg{Type: msgResult, TaskID: ev.TaskID, Index: ev.TaskIndex, Attempt: ev.Attempt, Error: ev.Err}
		if err := t.roundTrip(&m); err != nil {
			return ev, fmt.Errorf("exec: wirecheck result: %w", err)
		}
		ev.TaskID, ev.TaskIndex, ev.Attempt, ev.Err = m.TaskID, m.Index, m.Attempt, m.Error
	case EvHeartbeat:
		m := wireMsg{Type: msgHeartbeat}
		if err := t.roundTrip(&m); err != nil {
			return ev, fmt.Errorf("exec: wirecheck heartbeat: %w", err)
		}
	}
	return ev, nil
}

// Close implements Transport.
func (t *WireCheck) Close() error { return t.Inner.Close() }

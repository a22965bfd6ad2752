package exec

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"reassign/internal/dag"
)

// wireSamples covers every message type, including awkward field
// values: empty strings, negative ints, unicode, multi-arg argv.
func wireSamples() []wireMsg {
	return []wireMsg{
		{Type: msgHello, Slots: 4, Version: wireVersion},
		{Type: msgHello},
		{Type: msgWelcome, Worker: 129, TimeScale: 1e-3, HeartbeatMs: 20, Version: wireVersion},
		{Type: msgTask, Task: &TaskSpec{
			TaskID: "ID00007", Index: 7, Activity: "mProjectPP", VM: 3,
			VMType: "t2.micro", Attempt: 2, Duration: 12.75,
			Args: []string{"mProjectPP", "-X", "in—put.fits", ""},
		}},
		{Type: msgTask, Task: &TaskSpec{TaskID: "t", Attempt: 1}},
		{Type: msgResult, TaskID: "ID00007", Attempt: 3, Duration: 0.5, Error: "exit status 1"},
		{Type: msgResult, TaskID: "a", Attempt: 1},
		{Type: msgResult, TaskID: "neg", Attempt: -2, Duration: -1.5},
		{Type: msgHeartbeat, Running: 12},
		{Type: msgHeartbeat},
		{Type: msgShutdown},
	}
}

func TestWirePayloadRoundTrip(t *testing.T) {
	for _, want := range wireSamples() {
		payload := appendWirePayload(nil, &want)
		var got wireMsg
		if err := decodeWirePayload(payload, &got, nil); err != nil {
			t.Fatalf("%s: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: round trip mismatch:\nwant %+v\ngot  %+v", want.Type, want, got)
		}
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	// Frames chain: encode all samples back to back, decode them in
	// order — the stream a batched flush produces.
	var stream []byte
	samples := wireSamples()
	for i := range samples {
		stream = append(stream, appendWireFrame(nil, &samples[i])...)
	}
	for i := range samples {
		n, w := binary.Uvarint(stream)
		if w <= 0 {
			t.Fatalf("frame %d: bad length prefix", i)
		}
		var got wireMsg
		if err := decodeWirePayload(stream[w:w+int(n)], &got, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(samples[i], got) {
			t.Fatalf("frame %d mismatch: want %+v got %+v", i, samples[i], got)
		}
		stream = stream[w+int(n):]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after all frames", len(stream))
	}
}

// TestWireEncodeZeroAlloc pins the tentpole property: encoding a task
// message into a warm buffer allocates nothing.
func TestWireEncodeZeroAlloc(t *testing.T) {
	m := wireMsg{Type: msgTask, Task: &TaskSpec{
		TaskID: "ID00042", Index: 42, Activity: "mDiffFit", VM: 9,
		VMType: "t2.2xlarge", Attempt: 1, Duration: 99.5,
	}}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		buf = appendWirePayload(buf[:0], &m)
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f times per message, want 0", allocs)
	}
}

func TestWireDecodeRejectsCorruptFrames(t *testing.T) {
	task := wireMsg{Type: msgTask, Task: &TaskSpec{
		TaskID: "ID1", Activity: "a", Attempt: 1, Duration: 2,
		Args: []string{"x", "y"},
	}}
	whole := appendWirePayload(nil, &task)
	cases := map[string][]byte{
		"empty":        {},
		"unknown type": {0x7F, 1, 2, 3},
		"truncated":    whole[:len(whole)-3],
		"type only":    whole[:1],
		"trailing":     append(append([]byte{}, whole...), 0xAA),
	}
	// A string length pointing past the payload must not panic or
	// over-read.
	bad := append([]byte{}, whole...)
	bad[1] = 0xFF // corrupt the task-ID length varint
	cases["bad strlen"] = bad
	for name, payload := range cases {
		var m wireMsg
		if err := decodeWirePayload(payload, &m, nil); err == nil {
			t.Errorf("%s: corrupt payload decoded as %+v", name, m)
		}
	}
}

// TestWireArgsCountCapped rejects a frame claiming more argv entries
// than its bytes could hold, before allocating for them.
func TestWireArgsCountCapped(t *testing.T) {
	payload := []byte{binTask}
	payload = appendString(payload, "t")
	payload = appendInt(payload, 0)     // index
	payload = appendString(payload, "") // activity
	payload = appendInt(payload, 0)     // vm
	payload = appendString(payload, "") // vm type
	payload = appendInt(payload, 1)     // attempt
	payload = appendFloat(payload, 1)
	payload = appendInt(payload, 1<<30) // absurd arg count, no bytes behind it
	var m wireMsg
	if err := decodeWirePayload(payload, &m, nil); err == nil {
		t.Fatal("absurd arg count accepted")
	}
}

// TestWireResultIDResolvesByIndex: a result whose index names an
// activation with the same ID decodes to the workflow's own string,
// allocating nothing; a result whose index is out of range or names a
// different activation decodes to a copy of its wire bytes (which the
// master drops as an unknown task), and so does any result decoded
// without a workflow.
func TestWireResultIDResolvesByIndex(t *testing.T) {
	w := dag.New("ids")
	w.MustAdd("a", "act", 1)
	b := w.MustAdd("ID00007", "act", 1)
	payload := func(id string, index int) []byte {
		return appendWirePayload(nil, &wireMsg{Type: msgResult, TaskID: id, Index: index, Attempt: 1})
	}
	decode := func(p []byte, wf *dag.Workflow) string {
		t.Helper()
		var m wireMsg
		if err := decodeWirePayload(p, &m, wf); err != nil {
			t.Fatal(err)
		}
		return m.TaskID
	}
	canonical := func(s, id string) bool { return unsafe.StringData(s) == unsafe.StringData(id) }
	if got := decode(payload(b.ID, b.Index), w); got != b.ID || !canonical(got, b.ID) {
		t.Fatalf("matching index: TaskID %q is not the workflow's string", got)
	}
	for _, c := range []struct {
		id    string
		index int
		wf    *dag.Workflow
	}{
		{b.ID, 0, w}, {b.ID, 2, w}, {b.ID, -1, w}, {"zz", b.Index, w}, {b.ID, b.Index, nil},
	} {
		if got := decode(payload(c.id, c.index), c.wf); got != c.id || canonical(got, b.ID) {
			t.Errorf("id %q index %d: TaskID %q, want an uncanonical copy", c.id, c.index, got)
		}
	}
	p := payload(b.ID, b.Index)
	var m wireMsg
	allocs := testing.AllocsPerRun(200, func() {
		if err := decodeWirePayload(p, &m, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a resolvable result allocates %.1f times, want 0", allocs)
	}
}

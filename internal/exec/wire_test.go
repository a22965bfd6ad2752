package exec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"
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

func TestWireInternReturnsCanonicalString(t *testing.T) {
	canon := "ID00007"
	intern := map[string]string{canon: canon}
	m := wireMsg{Type: msgResult, TaskID: "ID00007", Attempt: 1}
	payload := appendWirePayload(nil, &m)
	var got wireMsg
	if err := decodeWirePayload(payload, &got, intern); err != nil {
		t.Fatal(err)
	}
	if got.TaskID != canon {
		t.Fatalf("TaskID = %q", got.TaskID)
	}
}

// TestBinCodecInternSharedWithReader drives the master side of one
// binary connection the way a run does: the master goroutine queues
// tasks, inserting their IDs into the codec's intern map, while the
// connection's reader goroutine decodes results that probe it. Run
// under -race; unsynchronised, the map access is a data race and can
// crash the process with a concurrent map read and write.
func TestBinCodecInternSharedWithReader(t *testing.T) {
	const n = 2000
	var frames []byte
	for i := 0; i < n; i++ {
		frames = appendWireFrame(frames, &wireMsg{Type: msgResult, TaskID: fmt.Sprintf("t%d", i), Attempt: 1})
	}
	c := newBinCodec(io.Discard, bufio.NewReader(bytes.NewReader(frames)))
	c.intern = make(map[string]string)
	done := make(chan error, 1)
	go func() {
		var m wireMsg
		for i := 0; i < n; i++ {
			if err := c.read(&m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := c.queue(&wireMsg{Type: msgTask, Task: &TaskSpec{TaskID: fmt.Sprintf("t%d", i), Attempt: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"reassign/internal/dag"
)

// The wire format (protocol version 2) is length-prefixed binary
// frames, so the master and workers can coalesce many messages into
// one write. A connection opens with a 4-byte preamble — 0xBF 'R' 'X'
// <version> — after which both directions speak frames:
//
//	frame   := uvarint(len(payload)) payload
//	payload := type-byte fields…
//
// Field order is fixed per message type (see appendWirePayload);
// integers are zig-zag varints, floats are 8-byte little-endian IEEE
// 754 bits, strings and string lists are uvarint-counted. Encoding
// appends into a reused buffer and allocates nothing in steady state;
// decoding reuses the frame read buffer and allocates only the
// strings it must materialise. On the master even a result's task ID
// is not materialised: it resolves by the result's task index to the
// bound workflow's own ID string (see taskID), so there is no intern
// map to keep. A master rejects a connection that opens with '{'
// (JSON lines, wire version 1) with errWireV1.
const wireVersion = 2

// binPreamble opens a connection: a magic byte, two tag bytes, and the
// protocol version.
var binPreamble = [4]byte{0xBF, 'R', 'X', wireVersion}

// Binary payload type bytes (the wire form of the msg* strings).
const (
	binHello     = 1
	binWelcome   = 2
	binTask      = 3
	binResult    = 4
	binHeartbeat = 5
	binShutdown  = 6
)

// maxFrame bounds a frame payload; anything larger is a corrupt or
// hostile stream, not a plausible message.
const maxFrame = 1 << 20

// binCodec is one connection's codec. queue encodes into a pending
// buffer under the lock; flush writes the whole batch in one Write
// call; read blocks for the next message. queue, flush and nudge may
// be called concurrently; read, buffered and the decode state belong
// to the single reading goroutine. With kick non-nil (the worker
// side), every queue nudges a flusher goroutine, so bursts of results
// coalesce into one syscall; the master side flushes explicitly once
// per event-loop turn instead.
type binCodec struct {
	mu      sync.Mutex
	w       io.Writer
	pend    []byte
	scratch []byte
	err     error // sticky write error

	kick chan struct{}
	// inflight counts tasks read off the wire whose results have not
	// been queued yet — the worker-side flusher's gather signal: while
	// executors are still working, more results are imminent and the
	// batch is worth holding. Tracked here so any session loop over
	// this codec gets the batching without plumbing its own counters.
	inflight atomic.Int32
	// inline means the session loop executes attempts on the read
	// goroutine and flushes result batches itself; queueing a result
	// then skips the flusher nudge, so the loop's one flush per wave is
	// not preempted by eager per-result writes.
	inline atomic.Bool

	br   *bufio.Reader
	rbuf []byte
	// wf, on the master side, points at the transport's bound workflow
	// (nil until a Master binds one): results decode their task IDs
	// against it by index. It is read once per message, so a master
	// may bind while results are already flowing.
	wf *atomic.Pointer[dag.Workflow]
	// cache interns strings that repeat across messages but were never
	// encoded on this side (a worker sees the same activity and VM-type
	// names on every task). Bounded by the workload's distinct names.
	cache map[string]string
	// taskBuf backs decoded task specs so reading a task allocates no
	// struct; m.Task is only valid until the next read on this codec —
	// the single reader copies it before dispatching.
	taskBuf TaskSpec
}

func newBinCodec(w io.Writer, br *bufio.Reader) *binCodec {
	// Seed the encode buffers so steady state is reached without the
	// append-doubling churn of growing from nil on every connection.
	return &binCodec{w: w, br: br,
		pend:    make([]byte, 0, 4096),
		scratch: make([]byte, 0, 256),
		rbuf:    make([]byte, 0, 512),
	}
}

func (c *binCodec) queue(m *wireMsg) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.scratch = appendWirePayload(c.scratch[:0], m)
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(c.scratch)))
	c.pend = append(c.pend, lb[:n]...)
	c.pend = append(c.pend, c.scratch...)
	c.mu.Unlock()
	if m.Type == msgResult {
		c.inflight.Add(-1)
		if c.inline.Load() {
			return nil // the session loop flushes the wave itself
		}
	}
	c.nudge()
	return nil
}

// nudge wakes the flusher goroutine, if one is running.
func (c *binCodec) nudge() {
	if c.kick != nil {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

func (c *binCodec) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if len(c.pend) == 0 {
		return nil
	}
	_, err := c.w.Write(c.pend)
	c.pend = c.pend[:0]
	if err != nil {
		c.err = err
	}
	return err
}

// autoFlush starts the background flusher that turns queue nudges
// into batched writes, running until stop closes. The worker side
// uses it because results finish on concurrent goroutines; the
// single-threaded master flushes explicitly instead.
//
// On a kick the flusher yields the processor, then holds the batch as
// long as tasks read off this codec are still executing (inflight > 0)
// — their results are imminent and belong in the same write, so a
// dispatch wave of instant tasks leaves as one syscall instead of
// one per scheduling quantum. The hold is re-armed by self-nudge
// (each cycle yields, so held executors always progress) and capped,
// so genuinely long-running tasks delay a finished result by a few
// yields at most. The signal is scheduling state, not a timer: an
// earlier wall-clock gather window was tried and lost, because in a
// pipelined steady state the worker always has attempts in flight and
// a timed hold degenerates into waiting out the full window on every
// flush.
func (c *binCodec) autoFlush(stop <-chan struct{}) {
	c.kick = make(chan struct{}, 1)
	go func() {
		const maxHolds = 8
		holds := 0
		for {
			select {
			case <-stop:
				return
			case <-c.kick:
				runtime.Gosched()
				if c.inflight.Load() > 0 && holds < maxHolds {
					holds++
					c.nudge()
					continue
				}
				holds = 0
				c.flush()
			}
		}
	}()
}

func (c *binCodec) read(m *wireMsg) error {
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		return err
	}
	if n > maxFrame {
		return fmt.Errorf("exec: wire frame of %d bytes exceeds the %d limit", n, maxFrame)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return err
	}
	if c.cache == nil {
		c.cache = make(map[string]string)
	}
	var w *dag.Workflow
	if c.wf != nil {
		w = c.wf.Load()
	}
	if err := decodeWire(c.rbuf, m, w, c.cache, &c.taskBuf); err != nil {
		return err
	}
	if m.Type == msgTask {
		c.inflight.Add(1)
	}
	return nil
}

// buffered reports whether a complete or partial message is already
// sitting in the read buffer — the reader's cue that another read
// will (almost certainly) not block, so consecutive messages can be
// delivered upstream as one batch.
func (c *binCodec) buffered() bool { return c.br.Buffered() > 0 }

// appendWireFrame appends m as one complete frame (length prefix +
// payload) — the stand-alone form WireCheck and the tests use; the
// codec's queue path encodes payload and prefix separately to reuse
// its scratch buffer.
func appendWireFrame(dst []byte, m *wireMsg) []byte {
	payload := appendWirePayload(nil, m)
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(payload)))
	dst = append(dst, lb[:n]...)
	return append(dst, payload...)
}

// appendWirePayload appends m's binary payload (type byte + fields)
// to dst. It allocates nothing beyond dst's growth.
func appendWirePayload(dst []byte, m *wireMsg) []byte {
	switch m.Type {
	case msgHello:
		dst = append(dst, binHello)
		dst = appendInt(dst, m.Slots)
		dst = appendInt(dst, m.Version)
	case msgWelcome:
		dst = append(dst, binWelcome)
		dst = appendInt(dst, m.Worker)
		dst = appendFloat(dst, m.TimeScale)
		dst = appendInt(dst, m.HeartbeatMs)
		dst = appendInt(dst, m.Version)
	case msgTask:
		dst = append(dst, binTask)
		t := m.Task
		dst = appendString(dst, t.TaskID)
		dst = appendInt(dst, t.Index)
		dst = appendString(dst, t.Activity)
		dst = appendInt(dst, t.VM)
		dst = appendString(dst, t.VMType)
		dst = appendInt(dst, t.Attempt)
		dst = appendFloat(dst, t.Duration)
		dst = appendInt(dst, len(t.Args))
		for _, a := range t.Args {
			dst = appendString(dst, a)
		}
	case msgResult:
		dst = append(dst, binResult)
		dst = appendString(dst, m.TaskID)
		dst = appendInt(dst, m.Index)
		dst = appendInt(dst, m.Attempt)
		dst = appendFloat(dst, m.Duration)
		dst = appendString(dst, m.Error)
	case msgHeartbeat:
		dst = append(dst, binHeartbeat)
		dst = appendInt(dst, m.Running)
	case msgShutdown:
		dst = append(dst, binShutdown)
	}
	return dst
}

// decodeWirePayload decodes one frame payload into m, resetting every
// field first. It rejects truncated or oversized fields without
// panicking — corrupt input must read as a broken connection, never
// as a crash. w, when non-nil, resolves result task IDs by index
// without allocating (see taskID). Task messages get a freshly
// allocated TaskSpec; the codec's read path reuses a buffer instead.
func decodeWirePayload(p []byte, m *wireMsg, w *dag.Workflow) error {
	return decodeWire(p, m, w, nil, nil)
}

// decodeWire is decodeWirePayload with the codec's reusable state:
// cache interns repeated decoded strings, tbuf (when non-nil) backs
// m.Task so decoding a task allocates no struct — the returned m.Task
// then aliases tbuf and is only valid until the next call.
func decodeWire(p []byte, m *wireMsg, w *dag.Workflow, cache map[string]string, tbuf *TaskSpec) error {
	*m = wireMsg{}
	if len(p) == 0 {
		return fmt.Errorf("exec: empty wire frame")
	}
	d := wireDecoder{p: p[1:], cache: cache}
	switch p[0] {
	case binHello:
		m.Type = msgHello
		m.Slots = d.int()
		m.Version = d.int()
	case binWelcome:
		m.Type = msgWelcome
		m.Worker = d.int()
		m.TimeScale = d.float()
		m.HeartbeatMs = d.int()
		m.Version = d.int()
	case binTask:
		m.Type = msgTask
		t := tbuf
		if t == nil {
			t = new(TaskSpec)
		}
		*t = TaskSpec{}
		t.TaskID = d.str()
		t.Index = d.int()
		t.Activity = d.strCached()
		t.VM = d.int()
		t.VMType = d.strCached()
		t.Attempt = d.int()
		t.Duration = d.float()
		if n := d.int(); n > 0 {
			if n > len(d.p) { // each arg takes ≥1 byte
				return fmt.Errorf("exec: wire task claims %d args in a %d-byte tail", n, len(d.p))
			}
			t.Args = make([]string, n)
			for i := range t.Args {
				t.Args[i] = d.str()
			}
		}
		m.Task = t
	case binResult:
		m.Type = msgResult
		id := d.raw()
		m.Index = d.int()
		m.TaskID = taskID(w, id, m.Index)
		m.Attempt = d.int()
		m.Duration = d.float()
		m.Error = d.str()
	case binHeartbeat:
		m.Type = msgHeartbeat
		m.Running = d.int()
	case binShutdown:
		m.Type = msgShutdown
	default:
		return fmt.Errorf("exec: unknown wire message type %d", p[0])
	}
	if d.err != nil {
		*m = wireMsg{}
		return d.err
	}
	if len(d.p) != 0 {
		*m = wireMsg{}
		return fmt.Errorf("exec: %d trailing bytes after wire message", len(d.p))
	}
	return nil
}

// taskID returns a result's task ID: the workflow's own ID string when
// index names an activation whose ID is exactly these bytes — the
// steady state, which allocates nothing — and otherwise a copy of the
// bytes, which the master then drops as an unknown task.
func taskID(w *dag.Workflow, b []byte, index int) string {
	if w != nil && index >= 0 && index < w.Len() {
		if id := w.ByIndex(index).ID; id == string(b) {
			return id
		}
	}
	return string(b)
}

func appendInt(dst []byte, v int) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], int64(v))
	return append(dst, b[:n]...)
}

func appendFloat(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

func appendString(dst []byte, s string) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], uint64(len(s)))
	dst = append(dst, b[:n]...)
	return append(dst, s...)
}

// wireDecoder consumes payload fields front to back, latching the
// first error so callers can decode a whole message and check once.
type wireDecoder struct {
	p     []byte
	cache map[string]string
	err   error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("exec: "+format, args...)
	}
}

func (d *wireDecoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.p = d.p[n:]
	return int(v)
}

func (d *wireDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.p) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

func (d *wireDecoder) str() string { return string(d.raw()) }

// raw consumes a string field and returns its bytes, aliasing the
// payload.
func (d *wireDecoder) raw() []byte {
	if d.err != nil {
		return nil
	}
	n, w := binary.Uvarint(d.p)
	if w <= 0 || n > uint64(len(d.p)-w) {
		d.fail("truncated string")
		return nil
	}
	b := d.p[w : w+int(n)]
	d.p = d.p[w+int(n):]
	return b
}

// strCached is str for fields whose values repeat across messages
// (activity and VM-type names): a miss materialises the string once
// and remembers it, so steady-state decoding of those fields never
// allocates. Unsuitable for unique-per-message fields like task IDs —
// the cache would grow without bound.
func (d *wireDecoder) strCached() string {
	b := d.raw()
	if d.cache == nil || len(b) == 0 {
		return string(b)
	}
	if s, ok := d.cache[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	d.cache[s] = s
	return s
}

package exec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reassign/internal/dag"
)

// TCP is the real-network transport: the master listens on Addr and
// waits for Workers execworker processes to join (loopback in tests
// and CI, a real network in anger). Every connection speaks the
// framed binary protocol (wire version 2, codec.go); a connection
// that fails the preamble check or the hello is closed and not
// counted, and the join keeps waiting. Events carry virtual timestamps
// derived from the wall clock via TimeScale, so the master's lease
// and backoff arithmetic is identical to the deterministic
// transport's — only the clock source differs.
//
// Sends are staged per connection and flushed in one write per
// master event-loop turn (see Flusher); with many activations
// multiplexed over each worker connection, a dispatch wave costs one
// syscall per worker instead of one per task. Results resolve their
// task IDs by index against the workflow the Master binds (exec.New
// does), so decoding one allocates nothing and no connection keeps a
// map of the IDs it was sent.
type TCP struct {
	// Addr is the listen address (e.g. "127.0.0.1:0").
	Addr string
	// Workers is how many workers Open waits for (default 1).
	Workers int
	// TimeScale is wall seconds per virtual second (default 1e-3).
	TimeScale float64
	// HeartbeatEvery is the virtual heartbeat period workers are told
	// to use (default 5 virtual seconds).
	HeartbeatEvery float64
	// JoinTimeout bounds Open's wait for workers (default 30s wall).
	JoinTimeout time.Duration

	ln     net.Listener
	opened []int
	start  time.Time
	// events carries batches: one reader wakeup delivers every frame
	// that arrived in the same write as one slice, so the master loop
	// is woken once per wave of results, not once per task. evbuf and
	// evhead are the batch Next is consuming — touched only by the
	// master goroutine.
	events chan []Event
	evbuf  []Event
	evhead int
	// timer bounds Next's finite-deadline waits; one per transport,
	// reset per wait (master goroutine only).
	timer *time.Timer
	// free recycles consumed batch buffers back to the readers, so
	// steady-state event delivery reuses slices instead of growing a
	// fresh one per wave.
	free   chan []Event
	donec  chan struct{}
	mu     sync.Mutex
	conns  map[int]*tcpConn
	dirty  []int
	closed bool
	// wf is the workflow the master bound, read by every reader
	// goroutine's result decoding; atomic because Open may start the
	// readers before or after New binds it.
	wf        atomic.Pointer[dag.Workflow]
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	readsIn   atomic.Int64
	writesOut atomic.Int64
}

type tcpConn struct {
	conn  net.Conn
	c     *binCodec
	dirty bool
}

// countingConn tallies wire bytes both ways into the owning TCP's
// counters, the substrate of the bench tier's bytes/task metric.
type countingConn struct {
	net.Conn
	t *TCP
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.bytesIn.Add(int64(n))
	c.t.readsIn.Add(1)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.bytesOut.Add(int64(n))
	c.t.writesOut.Add(1)
	return n, err
}

// Bytes reports the wire bytes received from and sent to workers so
// far.
func (t *TCP) Bytes() (in, out int64) {
	return t.bytesIn.Load(), t.bytesOut.Load()
}

// Calls reports the master-side Read and Write call counts — with the
// byte totals, the measure of how well batching is amortising
// syscalls (bytes per call is the average batch size on the wire).
func (t *TCP) Calls() (reads, writes int64) {
	return t.readsIn.Load(), t.writesOut.Load()
}

// Listen binds the listener without accepting workers, so callers can
// learn the bound address (Addr "…:0") before starting workers. Open
// calls it implicitly if needed.
func (t *TCP) Listen() error {
	if t.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", t.Addr)
	if err != nil {
		return fmt.Errorf("exec: listen %s: %w", t.Addr, err)
	}
	t.ln = ln
	return nil
}

// ListenAddr returns the bound address (valid after Listen or Open).
func (t *TCP) ListenAddr() string {
	if t.ln == nil {
		return t.Addr
	}
	return t.ln.Addr().String()
}

// vnow maps the wall clock to virtual seconds since Open completed.
func (t *TCP) vnow() float64 {
	return time.Since(t.start).Seconds() / t.TimeScale
}

// Open implements Transport: it accepts connections until Workers of
// them have handshaken, then starts their reader goroutines. A
// connection that fails the handshake (a port scan, a health probe, a
// stale JSON-lines worker) is closed and does not count; it does not
// end the join. Open is idempotent — a second call returns the worker
// set the first call joined — so callers that need the fleet ready
// before Run (pre-joining under a benchmark's stopped timer, or a
// daemon separating join from execution) can open early.
func (t *TCP) Open(ctx context.Context) ([]int, error) {
	if t.opened != nil {
		return t.opened, nil
	}
	if t.Workers <= 0 {
		t.Workers = 1
	}
	if t.TimeScale <= 0 {
		t.TimeScale = 1e-3
	}
	if t.HeartbeatEvery <= 0 {
		t.HeartbeatEvery = 5
	}
	if t.JoinTimeout <= 0 {
		t.JoinTimeout = 30 * time.Second
	}
	if err := t.Listen(); err != nil {
		return nil, err
	}
	// Deep enough to absorb a batch from every connection in the fleet
	// without back-pressuring the readers mid-turn.
	t.events = make(chan []Event, 1024)
	t.free = make(chan []Event, 1024)
	t.donec = make(chan struct{})
	t.conns = make(map[int]*tcpConn, t.Workers)
	heartbeatMs := int(t.HeartbeatEvery * t.TimeScale * 1000)
	if heartbeatMs < 20 {
		heartbeatMs = 20
	}
	deadline := time.Now().Add(t.JoinTimeout)
	ids := make([]int, 0, t.Workers)
	rejected := 0
	var lastReject error
	for len(ids) < t.Workers {
		if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
			deadline = dl
		}
		if tl, ok := t.ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			t.Close()
			// The join count and bound address make a chaos/soak
			// failure diagnosable: which side never showed up, and
			// where it should have connected.
			err = fmt.Errorf("exec: master on %s timed out waiting for workers: %d of %d joined: %w",
				t.ListenAddr(), len(ids), t.Workers, err)
			if rejected > 0 {
				err = fmt.Errorf("%w (%d connections rejected, last: %v)", err, rejected, lastReject)
			}
			return nil, err
		}
		id := len(ids)
		tc, err := t.handshake(conn, id, heartbeatMs, deadline)
		if err != nil {
			conn.Close()
			rejected++
			lastReject = err
			continue
		}
		t.mu.Lock()
		t.conns[id] = tc
		t.mu.Unlock()
		ids = append(ids, id)
	}
	if tl, ok := t.ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	// The virtual epoch is set before any reader runs, so events sent
	// during the join window are stamped at (small) post-epoch times,
	// never against the zero Time.
	t.start = time.Now()
	t.mu.Lock()
	for _, id := range ids {
		go t.reader(id, t.conns[id].c)
	}
	t.mu.Unlock()
	t.opened = ids
	return ids, nil
}

// handshake checks the joining connection's preamble, consumes the
// hello, and answers with a welcome naming the worker, the run's time
// scale, and the protocol version. The handshake's reads are bounded
// by 10 s and by the join deadline, whichever comes first, so a silent
// connection cannot hold the join past JoinTimeout.
func (t *TCP) handshake(conn net.Conn, id, heartbeatMs int, deadline time.Time) (*tcpConn, error) {
	cc := countingConn{Conn: conn, t: t}
	br := bufio.NewReader(cc)
	if dl := time.Now().Add(10 * time.Second); dl.Before(deadline) {
		deadline = dl
	}
	conn.SetReadDeadline(deadline)
	if err := readPreamble(br); err != nil {
		return nil, fmt.Errorf("exec: worker joining %s from %s: %w",
			t.ListenAddr(), conn.RemoteAddr(), err)
	}
	c := newBinCodec(cc, br)
	c.wf = &t.wf
	var hello wireMsg
	if err := c.read(&hello); err != nil || hello.Type != msgHello {
		return nil, fmt.Errorf("exec: worker handshake on %s from %s: got %q (%v)",
			t.ListenAddr(), conn.RemoteAddr(), hello.Type, err)
	}
	conn.SetReadDeadline(time.Time{})
	tc := &tcpConn{conn: conn, c: c}
	welcome := wireMsg{Type: msgWelcome, Worker: id, TimeScale: t.TimeScale,
		HeartbeatMs: heartbeatMs, Version: wireVersion}
	if err := c.queue(&welcome); err != nil {
		return nil, fmt.Errorf("exec: welcome worker %d: %w", id, err)
	}
	if err := c.flush(); err != nil {
		return nil, fmt.Errorf("exec: welcome worker %d: %w", id, err)
	}
	return tc, nil
}

// errWireV1 is the handshake error for a connection that opens with
// '{': a JSON-lines worker of wire version 1, which the master no
// longer speaks.
var errWireV1 = errors.New("JSON-lines wire v1 is no longer supported")

// readPreamble consumes the 4-byte preamble 0xBF 'R' 'X' <version>
// and rejects anything else.
func readPreamble(br *bufio.Reader) error {
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:1]); err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	if pre[0] == '{' {
		return errWireV1
	}
	if _, err := io.ReadFull(br, pre[1:]); err != nil {
		return fmt.Errorf("preamble: %w", err)
	}
	if pre[0] != binPreamble[0] || pre[1] != binPreamble[1] || pre[2] != binPreamble[2] {
		return fmt.Errorf("bad preamble % x", pre)
	}
	if pre[3] != wireVersion {
		return fmt.Errorf("unsupported wire version %d (want %d)", pre[3], wireVersion)
	}
	return nil
}

// reader pumps one worker's messages into the event channel; a read
// error (or EOF, or a corrupt frame) becomes a single EvWorkerLost.
// After a blocking read it keeps decoding while the codec still has
// bytes buffered — a worker's coalesced write of many results lands
// as one event batch, one master wakeup. (A partial trailing frame
// makes one of those reads block briefly, but its remainder is
// already in flight — the sender writes whole batches.)
func (t *TCP) reader(id int, c *binCodec) {
	const maxBatch = 512
	var m wireMsg
	for {
		var batch []Event
		var now float64
		for len(batch) < maxBatch {
			if len(batch) > 0 && !c.buffered() {
				break
			}
			if err := c.read(&m); err != nil {
				if len(batch) > 0 {
					t.emit(batch)
				}
				t.emit([]Event{{Kind: EvWorkerLost, Worker: id, Time: t.vnow()}})
				return
			}
			if len(batch) == 0 {
				// One clock read per batch: messages decoded from the
				// same arrival share its timestamp.
				now = t.vnow()
				if batch == nil {
					// Claim a buffer only now that there is something
					// to put in it — a reader parked in a blocking
					// read must not sit on a recycled buffer.
					select {
					case b := <-t.free:
						batch = b[:0]
					default:
						// Cold pool: start with room for a typical
						// wave instead of growing through doublings.
						batch = make([]Event, 0, 32)
					}
				}
			}
			switch m.Type {
			case msgResult:
				batch = append(batch, Event{Kind: EvResult, Worker: id, Time: now,
					TaskID: m.TaskID, TaskIndex: m.Index, Attempt: m.Attempt, Err: m.Error})
			case msgHeartbeat:
				batch = append(batch, Event{Kind: EvHeartbeat, Worker: id, Time: now})
			}
		}
		if len(batch) > 0 {
			t.emit(batch)
		}
	}
}

// emit delivers an event batch unless the transport has been closed.
// Ownership of the slice passes to the master loop.
func (t *TCP) emit(evs []Event) {
	select {
	case t.events <- evs:
	case <-t.donec:
	}
}

// Send implements Transport: the message is staged on the worker's
// connection and hits the wire at the next Flush.
func (t *TCP) Send(worker int, spec TaskSpec) error {
	t.mu.Lock()
	tc := t.conns[worker]
	if tc != nil && !tc.dirty {
		tc.dirty = true
		t.dirty = append(t.dirty, worker)
	}
	t.mu.Unlock()
	if tc == nil {
		return fmt.Errorf("exec: send to unknown worker %d", worker)
	}
	// The codec's queue retains nothing, so spec and the message stay
	// on this stack frame: dispatching a task allocates nothing
	// master-side.
	m := wireMsg{Type: msgTask, Task: &spec}
	return tc.c.queue(&m)
}

// Flush implements Flusher: every connection with staged messages
// gets its batch out in one write (connections nothing was queued on
// since the last flush are skipped — on a large fleet most turns
// touch a handful of workers). Workers whose batch cannot be
// delivered are returned (and dropped) so the master can run its
// worker-lost recovery directly instead of waiting for the reader to
// notice.
func (t *TCP) Flush() []int {
	t.mu.Lock()
	if len(t.dirty) == 0 {
		t.mu.Unlock()
		return nil
	}
	// The lock is held throughout, so no Send appends while the list is
	// walked, and the walked array is handed back for the next turn.
	ids := t.dirty
	sort.Ints(ids)
	var lost []int
	for _, id := range ids {
		tc := t.conns[id]
		if tc == nil {
			continue // already dropped by an earlier flush failure
		}
		tc.dirty = false
		if err := tc.c.flush(); err != nil {
			lost = append(lost, id)
			tc.conn.Close()
			delete(t.conns, id)
		}
	}
	t.dirty = ids[:0]
	t.mu.Unlock()
	return lost
}

// Next implements Transport.
func (t *TCP) Next(ctx context.Context, deadline float64) (Event, error) {
	// Consume the batch in hand before touching the channel: events
	// within one batch cost a slice index each, no scheduler round
	// trip.
	if t.evhead < len(t.evbuf) {
		ev := t.evbuf[t.evhead]
		t.evhead++
		if t.evhead == len(t.evbuf) {
			t.recycle(t.evbuf)
			t.evbuf = nil
		}
		return ev, nil
	}
	if deadline == Forever {
		select {
		case evs := <-t.events:
			return t.take(evs), nil
		case <-ctx.Done():
			return Event{}, ctx.Err()
		}
	}
	wait := time.Duration((deadline - t.vnow()) * t.TimeScale * float64(time.Second))
	if wait <= 0 {
		// The deadline already passed in wall time; drain a pending
		// batch if one is ready, else tick immediately.
		select {
		case evs := <-t.events:
			return t.take(evs), nil
		default:
			return Event{Kind: EvTick, Time: t.vnow()}, nil
		}
	}
	if t.timer == nil {
		t.timer = time.NewTimer(wait)
	} else {
		t.timer.Reset(wait) // stopped and drained by the previous wait
	}
	select {
	case evs := <-t.events:
		t.stopTimer()
		return t.take(evs), nil
	case <-t.timer.C:
		return Event{Kind: EvTick, Time: t.vnow()}, nil
	case <-ctx.Done():
		t.stopTimer()
		return Event{}, ctx.Err()
	}
}

// stopTimer stops the wait timer after a wait that did not receive
// from it. go.mod targets Go 1.22, whose timer channels buffer the
// fire: a timer that fired before Stop holds a stale value, which must
// be drained, or the next Reset's wait would end at once.
func (t *TCP) stopTimer() {
	if !t.timer.Stop() {
		<-t.timer.C
	}
}

// bind implements workflowBinder.
func (t *TCP) bind(w *dag.Workflow) { t.wf.Store(w) }

// take adopts a received batch (always non-empty) and returns its
// first event.
func (t *TCP) take(evs []Event) Event {
	ev := evs[0]
	if len(evs) == 1 {
		t.recycle(evs)
		return ev
	}
	t.evbuf = evs
	t.evhead = 1
	return ev
}

// recycle hands a fully consumed batch buffer back to the readers
// (dropped when the free list is full — it is garbage then, which is
// also fine).
func (t *TCP) recycle(evs []Event) {
	select {
	case t.free <- evs[:0]:
	default:
	}
}

// Close implements Transport: it tells workers to shut down and
// releases the listener and connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[int]*tcpConn{}
	t.mu.Unlock()
	if t.donec != nil {
		close(t.donec)
	}
	for _, tc := range conns {
		tc.c.queue(&wireMsg{Type: msgShutdown})
		tc.c.flush()
		tc.conn.Close()
	}
	if t.ln != nil {
		t.ln.Close()
	}
	return nil
}

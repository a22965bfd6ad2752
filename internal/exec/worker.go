package exec

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// NewRunner builds the worker's Runner once the master's welcome has
// told it the run's time scale (wall seconds per virtual second). A
// nil factory defaults to SleepRunner at the master's scale.
type NewRunner func(timeScale float64) Runner

// ServeConn runs the worker side of the protocol over an established
// connection (wire version 2, codec.go): preamble + hello/welcome
// handshake, then
// a loop executing task messages (one goroutine per attempt),
// heartbeating at the master-specified period, and reporting results.
// Results and heartbeats are staged through a coalescing writer, so a
// burst of completions costs one write instead of one syscall each.
// It returns nil on an orderly shutdown message, or the read error
// that ended the session.
func ServeConn(ctx context.Context, conn net.Conn, newRunner NewRunner) error {
	if _, err := conn.Write(binPreamble[:]); err != nil {
		return fmt.Errorf("exec: preamble: %w", err)
	}
	c := newBinCodec(conn, bufio.NewReader(conn))
	stop := make(chan struct{})
	defer close(stop)
	c.autoFlush(stop)
	// Runs once every attempt has finished: a batch the flusher was
	// still holding must not die with the session.
	defer c.flush()
	if err := c.queue(&wireMsg{Type: msgHello, Version: wireVersion}); err != nil {
		return fmt.Errorf("exec: hello: %w", err)
	}
	if err := c.flush(); err != nil {
		return fmt.Errorf("exec: hello: %w", err)
	}
	var welcome wireMsg
	if err := c.read(&welcome); err != nil || welcome.Type != msgWelcome {
		return fmt.Errorf("exec: expected welcome, got %q (%v)", welcome.Type, err)
	}
	var runner Runner
	if newRunner != nil {
		runner = newRunner(welcome.TimeScale)
	}
	if runner == nil {
		runner = SleepRunner{Scale: welcome.TimeScale}
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A runner that never blocks runs inline on this loop: a wave of
	// tasks is executed as it is decoded and answered in one write,
	// with no executor scheduling at all.
	inline := false
	if ir, ok := runner.(InstantRunner); ok && ir.Instant() {
		inline = true
		c.inline.Store(true)
	}
	var running atomic.Int32
	// Heartbeat until the session ends. The codec's flusher
	// coalesces a heartbeat with any results staged in the same
	// window.
	hb := time.Duration(welcome.HeartbeatMs) * time.Millisecond
	if hb <= 0 {
		hb = 100 * time.Millisecond
	}
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-wctx.Done():
				return
			case <-tick.C:
				hb := wireMsg{Type: msgHeartbeat, Running: int(running.Load())}
				if c.queue(&hb) != nil {
					return
				}
			}
		}
	}()

	// Attempts run on a grow-on-demand executor pool: a task goes to an
	// executor that is already idle, or a new one is spawned, so every
	// attempt still runs concurrently (the master does all slot
	// accounting) but steady-state dispatch reuses warm goroutine
	// stacks instead of paying newproc + stack growth per attempt.
	var wg sync.WaitGroup
	defer wg.Wait()
	taskc := make(chan TaskSpec)
	execute := func(spec TaskSpec) {
		d, err := runner.Run(wctx, spec)
		res := wireMsg{Type: msgResult, TaskID: spec.TaskID, Index: spec.Index, Attempt: spec.Attempt, Duration: d}
		if err != nil {
			res.Error = err.Error()
		}
		c.queue(&res)
		running.Add(-1)
		wg.Done()
	}
	var m wireMsg
	for {
		if err := c.read(&m); err != nil {
			return err
		}
		switch m.Type {
		case msgShutdown:
			return nil
		case msgTask:
			if m.Task == nil {
				continue
			}
			if inline {
				d, err := runner.Run(wctx, *m.Task)
				res := wireMsg{Type: msgResult, TaskID: m.Task.TaskID, Index: m.Task.Index, Attempt: m.Task.Attempt, Duration: d}
				if err != nil {
					res.Error = err.Error()
				}
				c.queue(&res)
				// Results for the frames still buffered are coming on
				// this same loop; flush once the wave is drained.
				if !c.buffered() {
					c.flush()
				}
				continue
			}
			spec := *m.Task
			running.Add(1)
			wg.Add(1)
			select {
			case taskc <- spec: // an idle executor takes it immediately
			default: // none idle: grow the pool
				go func(first TaskSpec) {
					execute(first)
					for {
						select {
						case next := <-taskc:
							execute(next)
						case <-wctx.Done():
							return
						}
					}
				}(spec)
			}
		}
	}
}

// Dial connects to a master at addr and serves until shutdown — the
// body of cmd/execworker, exported so tests can run in-process worker
// goroutines against a real TCP master.
func Dial(ctx context.Context, addr string, newRunner NewRunner) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("exec: dial %s: %w", addr, err)
	}
	defer conn.Close()
	return ServeConn(ctx, conn, newRunner)
}

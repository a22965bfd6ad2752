package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/provenance"
	"reassign/internal/trace"
)

// startWorker dials the master and serves in a goroutine, returning
// the connection so tests can kill it mid-run.
func startWorker(t *testing.T, addr string, newRunner NewRunner) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	go ServeConn(context.Background(), conn, newRunner)
	return conn
}

func TestTCPLoopbackSmoke(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(2)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	tcp := &TCP{Addr: "127.0.0.1:0", Workers: 2, TimeScale: 1e-4}
	if err := tcp.Listen(); err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore()
	m, err := New(w, fleet, spreadPlan(w, fleet), tcp,
		WithStore(store, "tcp"), WithLease(2000, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		conn := startWorker(t, tcp.ListenAddr(), nil) // default SleepRunner
		defer conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := m.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 50 || rep.Abandoned != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if store.Len() != 50 {
		t.Fatalf("provenance rows = %d", store.Len())
	}
	if rep.Makespan <= 0 {
		t.Fatalf("makespan = %v", rep.Makespan)
	}
	in, out := tcp.Bytes()
	if in <= 0 || out <= 0 {
		t.Fatalf("wire byte counters not moving: in=%d out=%d", in, out)
	}
}

// TestTCPRunHonoursCancellation: a run whose only activation would
// take an hour of wall time ends with the context's error once the
// context is done, instead of waiting the activation out.
func TestTCPRunHonoursCancellation(t *testing.T) {
	w := dag.New("long")
	w.MustAdd("a", "act", 3600)
	fleet, err := cloud.NewFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	tcp := &TCP{Addr: "127.0.0.1:0", Workers: 1, TimeScale: 1}
	if err := tcp.Listen(); err != nil {
		t.Fatal(err)
	}
	m, err := New(w, fleet, spreadPlan(w, fleet), tcp)
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	conn, err := net.Dial("tcp", tcp.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go ServeConn(wctx, conn, nil) // default SleepRunner: an hour at scale 1
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := m.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run: err = %v, want the context's deadline error", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("cancelled run took %v to return", d)
	}
}

// TestSoakWorkerDeaths is the -race soak: repeated TCP-loopback runs
// of small workflows with worker connections killed mid-run at random
// wall offsets, always leaving at least one survivor. Every run must
// finish with zero lost activations.
func TestSoakWorkerDeaths(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	rounds := 4
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			w := soakWorkflow(20, rng.Int63())
			fleet, err := cloud.NewFleet("soak",
				[]cloud.VMType{cloud.T2Large}, []int{4})
			if err != nil {
				t.Fatal(err)
			}
			tcp := &TCP{Addr: "127.0.0.1:0", Workers: 3, TimeScale: 1e-4}
			if err := tcp.Listen(); err != nil {
				t.Fatal(err)
			}
			store := provenance.NewStore()
			m, err := New(w, fleet, spreadPlan(w, fleet), tcp,
				WithStore(store, "soak"), WithLease(3000, 8))
			if err != nil {
				t.Fatal(err)
			}
			m.maxAttempts = 8
			var conns []net.Conn
			var mu sync.Mutex
			for i := 0; i < 3; i++ {
				conn := startWorker(t, tcp.ListenAddr(), nil)
				mu.Lock()
				conns = append(conns, conn)
				mu.Unlock()
				defer conn.Close()
			}
			// Kill up to two workers at random offsets; worker 0 survives.
			for _, victim := range []int{1, 2} {
				if rng.Intn(2) == 0 {
					continue
				}
				victim := victim
				delay := time.Duration(5+rng.Intn(40)) * time.Millisecond
				timer := time.AfterFunc(delay, func() {
					mu.Lock()
					conns[victim].Close()
					mu.Unlock()
				})
				defer timer.Stop()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			rep, err := m.Run(ctx)
			if err != nil {
				t.Fatalf("round %d: %v (report %+v)", round, err, rep)
			}
			if rep.Done != w.Len() || rep.Abandoned != 0 {
				t.Fatalf("round %d: %d/%d done, %d abandoned",
					round, rep.Done, w.Len(), rep.Abandoned)
			}
			if store.Len() != w.Len() {
				t.Fatalf("round %d: %d provenance rows", round, store.Len())
			}
		})
	}
}

// soakWorkflow builds a small random layered DAG.
func soakWorkflow(n int, seed int64) *dag.Workflow {
	rng := rand.New(rand.NewSource(seed))
	w := dag.New(fmt.Sprintf("soak-%d", seed))
	for i := 0; i < n; i++ {
		w.MustAdd(fmt.Sprintf("t%02d", i), "act", 50+rng.Float64()*150)
	}
	for i := 1; i < n; i++ {
		// Each task depends on 1-2 earlier tasks.
		for d := 0; d < 1+rng.Intn(2); d++ {
			w.MustDep(fmt.Sprintf("t%02d", rng.Intn(i)), fmt.Sprintf("t%02d", i))
		}
	}
	return w
}

func TestServeConnRejectsBadHandshake(t *testing.T) {
	// A worker that never receives a welcome must error out, not hang.
	client, server := net.Pipe()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(context.Background(), client, nil)
	}()
	server.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	if _, err := server.Read(buf); err != nil { // drain the hello
		t.Fatal(err)
	}
	server.Close() // no welcome: the worker's decode fails
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeConn accepted a session with no welcome")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn hung without a welcome")
	}
}

func TestPlanValidateViaMaster(t *testing.T) {
	// The load-time check names the offending activation and VM.
	w := dag.New("v")
	w.MustAdd("a", "act", 1)
	fleet, err := cloud.NewFleet("v", []cloud.VMType{cloud.T2Micro}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(w, fleet, core.NewPlan(map[string]int{"a": 7}),
		&InProc{Workers: 1, Runner: SimRunner{}})
	if err == nil {
		t.Fatal("stale plan accepted")
	}
}

// TestTCPBindWhileResultsFlow runs under -race in `make race-exec`: the
// transport opens and its reader decodes results before New binds the
// workflow, and keeps decoding while New binds it. Results decoded
// before the bind carry copies of their IDs; once bound, they carry the
// workflow's own strings.
func TestTCPBindWhileResultsFlow(t *testing.T) {
	w := soakWorkflow(20, 1)
	fleet, err := cloud.NewFleet("bind", []cloud.VMType{cloud.T2Large}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	tcp := &TCP{Addr: "127.0.0.1:0", Workers: 1, TimeScale: 1e-4}
	if err := tcp.Listen(); err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	conn, err := net.Dial("tcp", tcp.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A worker that, once joined, streams results for every activation
	// until the master goes away.
	go func() {
		hello := append(binPreamble[:], appendWireFrame(nil, &wireMsg{Type: msgHello, Slots: 1, Version: wireVersion})...)
		if _, err := conn.Write(hello); err != nil {
			return
		}
		var batch []byte
		for _, a := range w.Activations() {
			batch = appendWireFrame(batch, &wireMsg{Type: msgResult, TaskID: a.ID, Index: a.Index, Attempt: 1})
		}
		for {
			if _, err := conn.Write(batch); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tcp.Open(ctx); err != nil {
		t.Fatal(err)
	}
	canonical := func(ev Event) bool {
		return ev.Kind == EvResult && unsafe.StringData(ev.TaskID) == unsafe.StringData(w.ByIndex(ev.TaskIndex).ID)
	}
	ev, err := tcp.Next(ctx, Forever)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EvResult || ev.TaskID != w.ByIndex(ev.TaskIndex).ID || canonical(ev) {
		t.Fatalf("before the bind: event %+v, want a result carrying a copy of its ID", ev)
	}
	if _, err := New(w, fleet, spreadPlan(w, fleet), tcp); err != nil {
		t.Fatal(err)
	}
	for !canonical(ev) {
		if ev, err = tcp.Next(ctx, Forever); err != nil {
			t.Fatalf("no result resolved against the bound workflow: %v", err)
		}
		if ev.Kind == EvResult && ev.TaskID != w.ByIndex(ev.TaskIndex).ID {
			t.Fatalf("result %+v: ID does not match its index", ev)
		}
	}
}

// TestTCPFlushAllocFree: once warm, staging sends and flushing them
// allocates nothing — Flush hands its walked dirty list back for the
// next turn instead of leaving the next Send an exhausted tail to grow.
func TestTCPFlushAllocFree(t *testing.T) {
	tcp := &TCP{conns: map[int]*tcpConn{}}
	for id := 0; id < 3; id++ {
		tcp.conns[id] = &tcpConn{c: newBinCodec(io.Discard, nil)}
	}
	spec := TaskSpec{TaskID: "x0001", Index: 1, Activity: "bench", VM: 2, VMType: "t2.large", Attempt: 1, Duration: 3}
	turn := func() {
		for _, id := range []int{2, 0} {
			if err := tcp.Send(id, spec); err != nil {
				t.Fatal(err)
			}
		}
		if lost := tcp.Flush(); len(lost) != 0 {
			t.Fatalf("lost workers %v", lost)
		}
	}
	if allocs := testing.AllocsPerRun(100, turn); allocs != 0 {
		t.Fatalf("a send+flush turn allocates %.1f times, want 0", allocs)
	}
}

// TestTCPNextReusesTimer: finite-deadline waits share one timer, so a
// timed-out wait allocates nothing, and a wait that ended on an event
// leaves no stale fire behind for the next wait to return early on.
func TestTCPNextReusesTimer(t *testing.T) {
	tcp := &TCP{TimeScale: 1e-4, events: make(chan []Event, 1), start: time.Now()}
	ctx := context.Background()
	tick := func(virtual float64) {
		t.Helper()
		ev, err := tcp.Next(ctx, tcp.vnow()+virtual)
		if err != nil || ev.Kind != EvTick {
			t.Fatalf("wait: %+v, %v; want a tick", ev, err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { tick(2) }); allocs != 0 {
		t.Fatalf("a timed-out wait allocates %.1f times, want 0", allocs)
	}
	for i := 0; i < 20; i++ {
		// A 1 µs wait that an already-queued event ends.
		tcp.events <- []Event{{Kind: EvHeartbeat}}
		if ev, err := tcp.Next(ctx, tcp.vnow()+1e-2); err != nil || ev.Kind != EvHeartbeat {
			if ev.Kind != EvTick {
				t.Fatalf("short wait: %+v, %v", ev, err)
			}
			<-tcp.events // the tick won; drop the event
		}
		time.Sleep(time.Millisecond) // an armed timer would fire here
		start := time.Now()
		tick(50) // 5 ms of wall time
		if d := time.Since(start); d < 4*time.Millisecond {
			t.Fatalf("round %d: a 5 ms wait returned after %v", i, d)
		}
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

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
				WithStore(store, "soak"), WithLease(3000, 8), WithMaxAttempts(8))
			if err != nil {
				t.Fatal(err)
			}
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

package benchsuite

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
)

// The exec tier measures the execution-stage wire path: a wide
// 1000-activation plan (no dependencies, so dispatch is pure
// throughput) driven through the master over the InProc transport
// (the no-wire ceiling) and over loopback TCP. Headline metrics are "tasks/s" and, for the
// TCP variants, "B/task" (wire bytes per completed activation, both
// directions). Heartbeats and lease retries are disabled so the
// numbers isolate codec + batching cost from timer noise.

// execBenchTimeout bounds one benchmark op; a healthy run finishes in
// well under a second.
const execBenchTimeout = 120 * time.Second

// execWorkload builds a wide workflow of n independent activations
// and a plan spreading them round-robin over the fleet's VMs.
func execWorkload(n int, fleet *cloud.Fleet) (*dag.Workflow, core.Plan) {
	w := dag.New(fmt.Sprintf("exec-bench-%d", n))
	assign := make(map[string]int, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("x%04d", i)
		w.MustAdd(id, "bench", 1+float64(i%7))
		assign[id] = fleet.VMs[i%fleet.Len()].ID
	}
	return w, core.NewPlan(assign)
}

// execFleet scales the fleet to the worker pool: 16 vCPU slots per
// worker, so each connection multiplexes a deep stream of in-flight
// activations — the regime the batched wire path is built for.
func execFleet(b *testing.B, workers int) *cloud.Fleet {
	fleet, err := cloud.FleetScaled(workers * 16)
	if err != nil {
		b.Fatal(err)
	}
	return fleet
}

// ExecInProc returns the no-wire baseline: the same plan through the
// deterministic in-process transport. The gap between this and the
// TCP variants is the total cost of the wire.
func ExecInProc(tasks, workers int) func(*testing.B) {
	return func(b *testing.B) {
		fleet := execFleet(b, workers)
		w, plan := execWorkload(tasks, fleet)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := &exec.InProc{Workers: workers, Runner: exec.SimRunner{}, HeartbeatEvery: 1e9}
			m, err := exec.New(w, fleet, plan, tr, exec.WithLease(1e9, 1))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := m.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if rep.Done != tasks {
				b.Fatalf("done = %d of %d", rep.Done, tasks)
			}
		}
		reportExecThroughput(b, tasks, 0, 0)
	}
}

// ExecTCP returns the loopback-TCP benchmark: `workers` in-process
// worker goroutines dial the master and serve the plan with an
// instant runner.
func ExecTCP(tasks, workers int) func(*testing.B) {
	return func(b *testing.B) {
		fleet := execFleet(b, workers)
		w, plan := execWorkload(tasks, fleet)
		runner := exec.NewRunner(func(float64) exec.Runner { return exec.SimRunner{} })
		var wireBytes, wireCalls int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tcp := &exec.TCP{
				Addr: "127.0.0.1:0", Workers: workers,
				TimeScale: 1e-4, HeartbeatEvery: 1e9,
			}
			if err := tcp.Listen(); err != nil {
				b.Fatal(err)
			}
			// Caller-owned transport: the 64-connection shutdown is
			// teardown, not wire path, so it happens off the clock below.
			m, err := exec.New(w, fleet, plan, tcp, exec.WithLease(1e9, 1), exec.WithCallerOwnedTransport())
			if err != nil {
				b.Fatal(err)
			}
			conns := make([]net.Conn, workers)
			var wg sync.WaitGroup
			for j := 0; j < workers; j++ {
				j := j
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.Dial("tcp", tcp.ListenAddr())
					if err != nil {
						b.Error(err)
						return
					}
					conns[j] = conn
					go exec.ServeConn(context.Background(), conn, runner)
				}()
			}
			wg.Wait()
			if b.Failed() {
				b.FailNow()
			}
			ctx, cancel := context.WithTimeout(context.Background(), execBenchTimeout)
			// Pre-join the fleet (Open is idempotent, so Run reuses it):
			// the timed region then measures the steady-state wire path,
			// not 64 connection handshakes.
			if _, err := tcp.Open(ctx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := m.Run(ctx)
			b.StopTimer()
			tcp.Close()
			cancel()
			in, out := tcp.Bytes()
			wireBytes += in + out
			r, w := tcp.Calls()
			wireCalls += r + w
			for _, conn := range conns {
				if conn != nil {
					conn.Close()
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			if rep.Done != tasks {
				b.Fatalf("done = %d of %d", rep.Done, tasks)
			}
			// Collect the op's garbage while the clock is stopped, so one
			// op's teardown debt is not billed to the next op's tasks.
			runtime.GC()
			b.StartTimer()
		}
		b.StopTimer()
		reportExecThroughput(b, tasks, wireBytes, wireCalls)
	}
}

// reportExecThroughput attaches tasks/s (completed activations per
// timed second) and, when wire traffic was counted, B/task (wire
// bytes per completed activation, both directions) and sys/task
// (master-side read+write calls per activation — the syscall
// amortisation the batched codec buys).
func reportExecThroughput(b *testing.B, tasks int, wireBytes, wireCalls int64) {
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(b.N)*float64(tasks)/secs, "tasks/s")
	}
	if wireBytes > 0 && b.N > 0 {
		b.ReportMetric(float64(wireBytes)/(float64(b.N)*float64(tasks)), "B/task")
	}
	if wireCalls > 0 && b.N > 0 {
		b.ReportMetric(float64(wireCalls)/(float64(b.N)*float64(tasks)), "sys/task")
	}
}

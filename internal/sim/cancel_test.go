package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/trace"
)

// cancelHook cancels a context after N scheduling decisions — a
// deterministic stand-in for an external cancel landing mid-run.
type cancelHook struct {
	after  int
	cancel context.CancelFunc
	seen   int
}

func (h *cancelHook) RunStart(*Env) RunHook { return h }
func (h *cancelHook) Decision(float64, *Context) {
	h.seen++
	if h.seen == h.after {
		h.cancel()
	}
}
func (h *cancelHook) TaskReady(float64, *Task)            {}
func (h *cancelHook) TaskStart(float64, *Task, *VMState)  {}
func (h *cancelHook) TaskFinish(float64, *Task, *VMState) {}
func (h *cancelHook) RunEnd(*Result)                      {}

func cancelTestProblem(t *testing.T) (*Engine, *cancelHook, context.Context) {
	t.Helper()
	w := trace.Montage50(rand.New(rand.NewSource(1)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &cancelHook{after: 3, cancel: cancel}
	eng, err := NewEngine(w, fleet, &greedyFirst{}, Config{Ctx: ctx, Hook: h})
	if err != nil {
		t.Fatal(err)
	}
	return eng, h, ctx
}

func TestRunCanceledMidRun(t *testing.T) {
	eng, h, _ := cancelTestProblem(t)
	_, err := eng.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if h.seen < h.after {
		t.Fatalf("hook saw %d decisions, cancel never fired", h.seen)
	}
	// The cancel is observed at the next scheduling cycle, not at the
	// end of the workflow: the run must abort well short of Montage50's
	// full decision count.
	if h.seen > h.after+1 {
		t.Fatalf("run kept scheduling after cancel: %d decisions", h.seen)
	}
}

func TestRunPreCanceled(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(1)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(w, fleet, &greedyFirst{}, Config{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestResetAfterCancel pins the recovery path the daemon's engine
// pool relies on: an interrupted engine, once Reset with a live
// config, runs to completion with results identical to a fresh one.
func TestResetAfterCancel(t *testing.T) {
	eng, _, _ := cancelTestProblem(t)
	if _, err := eng.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: %v, want context.Canceled", err)
	}
	eng.Reset(Config{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("reset run ended %v", res.State)
	}

	w := trace.Montage50(rand.New(rand.NewSource(1)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != fresh.Makespan {
		t.Fatalf("reset-after-cancel makespan %v != fresh %v", res.Makespan, fresh.Makespan)
	}
}

// goroutineCancelHook, at its after-th decision, signals reached and
// holds the run until another goroutine has canceled the context, so
// the cancel lands in the middle of an episode from outside the engine.
type goroutineCancelHook struct {
	cancelHook
	ctx     context.Context
	reached chan struct{}
}

func (h *goroutineCancelHook) RunStart(*Env) RunHook { return h }
func (h *goroutineCancelHook) Decision(float64, *Context) {
	h.seen++
	if h.seen == h.after {
		close(h.reached)
		<-h.ctx.Done()
	}
}

// TestRunCanceledFromAnotherGoroutine: a cancel from another goroutine
// mid-episode is seen at the next scheduling cycle. Run it under -race:
// the engine reads the cancellation through the context's Done
// channel, which orders it after the cancel.
func TestRunCanceledFromAnotherGoroutine(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(1)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &goroutineCancelHook{cancelHook: cancelHook{after: 3}, ctx: ctx, reached: make(chan struct{})}
	eng, err := NewEngine(w, fleet, &greedyFirst{}, Config{Ctx: ctx, Hook: h})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		select {
		case <-h.reached:
			cancel()
		case <-ctx.Done(): // the test is over
		}
	}()
	if _, err := eng.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if h.seen > h.after+1 {
		t.Fatalf("run kept scheduling after cancel: %d decisions", h.seen)
	}
}

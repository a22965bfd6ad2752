package exec

import (
	"context"
	"math/rand"

	"reassign/internal/dag"
	"reassign/internal/randsrc"
)

// Fault wraps a Transport with seeded worker-death injection, the
// chaos layer for retry/reassignment testing: each delivered result
// or heartbeat kills its worker with probability Rate, after which
// the worker's remaining events are swallowed — exactly what a
// crashed MPI slave looks like from the master. Over the
// deterministic InProc transport the injected deaths are themselves
// deterministic (the seeded stream meets the same event sequence
// every run), so a faulty run is as reproducible as a clean one.
type Fault struct {
	Inner Transport
	// Rate is the per-event death probability.
	Rate float64
	// Seed drives the death draws.
	Seed int64
	// MaxKills caps injected deaths (0 = no cap).
	MaxKills int
	// MinAlive is the floor of surviving workers (default 1 — the
	// executor is never left with an empty pool by injection alone).
	MinAlive int

	rng   *rand.Rand
	dead  map[int]bool
	alive int
	kills int
}

// Open implements Transport.
func (f *Fault) Open(ctx context.Context) ([]int, error) {
	ids, err := f.Inner.Open(ctx)
	if err != nil {
		return nil, err
	}
	f.rng = rand.New(randsrc.New(f.Seed))
	f.dead = make(map[int]bool)
	f.alive = len(ids)
	if f.MinAlive <= 0 {
		f.MinAlive = 1
	}
	return ids, nil
}

// Send implements Transport: sends to a killed worker vanish into the
// void, as they would on a dead socket.
func (f *Fault) Send(worker int, t TaskSpec) error {
	if f.dead[worker] {
		return nil
	}
	return f.Inner.Send(worker, t)
}

// Next implements Transport.
func (f *Fault) Next(ctx context.Context, deadline float64) (Event, error) {
	for {
		ev, err := f.Inner.Next(ctx, deadline)
		if err != nil {
			return ev, err
		}
		switch ev.Kind {
		case EvResult, EvHeartbeat:
			if f.dead[ev.Worker] {
				continue // the grave is silent
			}
			if f.kills < f.MaxKills || f.MaxKills == 0 {
				if f.alive > f.MinAlive && f.Rate > 0 && f.rng.Float64() < f.Rate {
					f.dead[ev.Worker] = true
					f.alive--
					f.kills++
					return Event{Kind: EvWorkerLost, Worker: ev.Worker, Time: ev.Time}, nil
				}
			}
		case EvWorkerLost:
			if f.dead[ev.Worker] {
				continue // already reported by injection
			}
			f.dead[ev.Worker] = true
			f.alive--
		}
		return ev, nil
	}
}

// Flush implements Flusher when the inner transport batches: flush
// failures are real worker deaths, so the wrapper records them before
// handing them to the master (their remaining events must be
// swallowed like any other corpse's).
func (f *Fault) Flush() []int {
	fl, ok := f.Inner.(Flusher)
	if !ok {
		return nil
	}
	lost := fl.Flush()
	for _, id := range lost {
		if !f.dead[id] {
			f.dead[id] = true
			f.alive--
		}
	}
	return lost
}

// Close implements Transport.
func (f *Fault) Close() error { return f.Inner.Close() }

// bind implements workflowBinder by forwarding to the inner transport.
func (f *Fault) bind(w *dag.Workflow) { bindWorkflow(f.Inner, w) }

// Kills reports how many deaths were injected.
func (f *Fault) Kills() int { return f.kills }

package exec

import (
	"context"
	"fmt"

	"reassign/internal/des"
)

// InProc is the deterministic in-process transport: a virtual-clock
// event queue standing in for a worker pool. Send "executes" the
// attempt immediately via the Runner (which returns a virtual
// duration) and schedules its result — and periodic worker heartbeats
// — on the queue; Next pops events in (time, sequence) order. There
// is no real concurrency and no wall clock, so for a fixed seed a
// master run over InProc is bit-identical, event for event.
type InProc struct {
	// Workers is the size of the virtual pool (default 1). The master
	// partitions fleet VMs across workers round-robin, so the pool
	// size sets the blast radius of an injected worker death.
	Workers int
	// Runner executes attempts (required).
	Runner Runner
	// HeartbeatEvery is the virtual period of worker heartbeats while
	// a worker has attempts in flight (default 5s).
	HeartbeatEvery float64

	// queue holds the pending results and heartbeats keyed (time,
	// seq): des's order at a single priority.
	queue   des.Heap[Event]
	now     float64
	seq     int64
	running []int  // in-flight attempts per worker
	beating []bool // a heartbeat event is pending for the worker
	opened  bool
}

func (p *InProc) push(t float64, ev Event) {
	ev.Time = t
	p.queue.Push(des.Key{Time: t, Seq: p.seq}, ev)
	p.seq++
}

// Open implements Transport.
func (p *InProc) Open(context.Context) ([]int, error) {
	if p.Runner == nil {
		return nil, fmt.Errorf("exec: InProc needs a Runner")
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	if p.HeartbeatEvery <= 0 {
		p.HeartbeatEvery = 5
	}
	p.running = make([]int, p.Workers)
	p.beating = make([]bool, p.Workers)
	p.opened = true
	ids := make([]int, p.Workers)
	for i := range ids {
		ids[i] = i
	}
	return ids, nil
}

// Send implements Transport: it runs the attempt synchronously (the
// runner returns a virtual duration) and schedules the result.
func (p *InProc) Send(worker int, t TaskSpec) error {
	if !p.opened {
		return fmt.Errorf("exec: InProc.Send before Open")
	}
	if worker < 0 || worker >= len(p.running) {
		return fmt.Errorf("exec: InProc.Send to worker %d of %d", worker, len(p.running))
	}
	d, err := p.Runner.Run(context.Background(), t)
	if d < 0 {
		d = 0
	}
	ev := Event{Kind: EvResult, Worker: worker, TaskID: t.TaskID, TaskIndex: t.Index, Attempt: t.Attempt}
	if err != nil {
		ev.Err = err.Error()
	}
	p.push(p.now+d, ev)
	p.running[worker]++
	if !p.beating[worker] {
		p.beating[worker] = true
		p.push(p.now+p.HeartbeatEvery, Event{Kind: EvHeartbeat, Worker: worker})
	}
	return nil
}

// Next implements Transport.
func (p *InProc) Next(_ context.Context, deadline float64) (Event, error) {
	for {
		if len(p.queue) == 0 {
			if deadline == Forever {
				return Event{}, ErrIdle
			}
			if deadline > p.now {
				p.now = deadline
			}
			return Event{Kind: EvTick, Time: p.now}, nil
		}
		t := p.queue[0].Time
		if t > deadline {
			if deadline > p.now {
				p.now = deadline
			}
			return Event{Kind: EvTick, Time: p.now}, nil
		}
		ev := p.queue.Pop()
		if t > p.now {
			p.now = t
		}
		switch ev.Kind {
		case EvHeartbeat:
			// Heartbeats self-renew while the worker is busy and lapse
			// when it drains.
			if p.running[ev.Worker] == 0 {
				p.beating[ev.Worker] = false
				continue
			}
			p.push(p.now+p.HeartbeatEvery, Event{Kind: EvHeartbeat, Worker: ev.Worker})
		case EvResult:
			p.running[ev.Worker]--
		}
		return ev, nil
	}
}

// Close implements Transport.
func (p *InProc) Close() error {
	p.queue = nil
	return nil
}

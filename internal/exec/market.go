package exec

import (
	"context"
	"fmt"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/des"
	"reassign/internal/market"
	"reassign/internal/telemetry"
)

// MarketFeed wraps a Transport and injects the lifecycle events of a
// market trace — preemption notices, kills and health changes — into
// the master's event stream at their traced virtual times. It is the
// execution-stage analogue of the simulator's market scheduling: the
// master sees EvPreemptNotice/EvVMKill/EvVMHealth interleaved with
// worker events in deterministic time order (worker events win ties),
// so a run over the deterministic transport stays bit-identical.
//
// The feed is designed for virtual-time transports (InProc). Over TCP
// the traced times are compared against the wall-clock virtual mapping
// the transport reports, which is deterministic only in ordering, not
// in timing.
type MarketFeed struct {
	inner  Transport
	pb     *market.Playback
	events []market.VMEvent
	next   int
}

// NewMarketFeed wraps tr so the master receives pb's traced lifecycle
// events.
func NewMarketFeed(tr Transport, pb *market.Playback) *MarketFeed {
	return &MarketFeed{inner: tr, pb: pb}
}

// Open opens the inner transport and loads the trace's event schedule.
func (f *MarketFeed) Open(ctx context.Context) ([]int, error) {
	f.events = f.pb.Events()
	f.next = 0
	return f.inner.Open(ctx)
}

// Send delegates to the inner transport.
func (f *MarketFeed) Send(worker int, t TaskSpec) error { return f.inner.Send(worker, t) }

// Next returns the earlier of the inner transport's next event and the
// next traced market event. When a market event is due first, the
// inner transport is polled up to that instant: any real event at or
// before it is delivered first, and only an idle or timed-out inner
// queue yields the synthesised market event.
func (f *MarketFeed) Next(ctx context.Context, deadline float64) (Event, error) {
	if f.next < len(f.events) {
		evAt := f.events[f.next].At
		if evAt <= deadline {
			iev, err := f.inner.Next(ctx, evAt)
			if err == ErrIdle || (err == nil && iev.Kind == EvTick && iev.Time >= evAt) {
				ev := synthMarketEvent(f.events[f.next])
				f.next++
				return ev, nil
			}
			return iev, err
		}
	}
	return f.inner.Next(ctx, deadline)
}

// Flush delegates to the inner transport when it batches sends.
func (f *MarketFeed) Flush() []int {
	if fl, ok := f.inner.(Flusher); ok {
		return fl.Flush()
	}
	return nil
}

// Close delegates to the inner transport.
func (f *MarketFeed) Close() error { return f.inner.Close() }

// bind implements workflowBinder by forwarding to the inner transport.
func (f *MarketFeed) bind(w *dag.Workflow) { bindWorkflow(f.inner, w) }

// synthMarketEvent maps one traced event onto the master-side kind.
func synthMarketEvent(e market.VMEvent) Event {
	p := &MarketPayload{VM: e.VM}
	ev := Event{Time: e.At, TaskIndex: -1, Market: p}
	switch e.Kind {
	case market.EvNotice:
		ev.Kind = EvPreemptNotice
		p.KillAt = e.KillAt
	case market.EvKill:
		ev.Kind = EvVMKill
	case market.EvDegrade:
		ev.Kind = EvVMHealth
		p.Factor = e.Slow
	case market.EvRecover:
		ev.Kind = EvVMHealth
		p.Factor = 1
	}
	return ev
}

// WithMarket runs the master against a market trace: VM kills and
// health changes arrive through a MarketFeed, the report is billed
// against the traced prices, and — unless WithReactiveOnly is set — a
// preemption notice triggers cordon/drain/remediate before the kill
// lands. The trace must assign every fleet VM.
func WithMarket(pb *market.Playback) Option {
	return func(m *Master) { m.market = pb }
}

// WithReactiveOnly disables acting on preemption notices: the master
// only reacts once the kill lands, the baseline policy the frontier
// study compares against.
func WithReactiveOnly() Option {
	return func(m *Master) { m.reactiveOnly = true }
}

// replacementBill records one remediation acquire for end-of-run
// billing: an on-demand instance of the preempted VM's offer, paid
// from its acquire time.
type replacementBill struct {
	provider string
	typ      string
	from     float64
}

// validateMarketFleet checks the trace assigns every fleet VM, so a
// trace generated for another fleet fails at New instead of
// under-billing the run.
func (m *Master) validateMarketFleet() error {
	if m.market == nil {
		return nil
	}
	for _, vm := range m.fleet.VMs {
		if _, ok := m.market.AssignFor(vm.ID); !ok {
			return fmt.Errorf("exec: market trace does not assign vm %d (%s); regenerate the trace for this fleet",
				vm.ID, vm.Type.Name)
		}
	}
	return nil
}

// onPreemptNotice handles a spot preemption notice. Reactive-only
// masters record it and wait for the kill; notice-reactive masters act
// before failure: the VM is cordoned against new work, attempts that
// cannot finish before the kill are reassigned now instead of dying
// later, and a replacement acquire is scheduled just in time for the
// kill. Work that provably fits the notice window keeps running — the
// window is paid-for capacity, and riding it loses nothing.
func (m *Master) onPreemptNotice(ev Event) {
	vs := m.vmByID[ev.Market.VM]
	if vs == nil || vs.dead {
		return
	}
	m.preemptNotices++
	if m.reactiveOnly || vs.cordoned {
		return
	}
	vs.cordoned = true
	vs.killAt = ev.Market.KillAt
	m.cordonedCount++
	// Reassign running attempts that cannot finish inside the notice
	// window: riding to the kill loses the same progress a full notice
	// lead later. Attempts that fit keep running — they beat the kill
	// and their work is kept.
	window := ev.Market.KillAt - m.now
	for at := 0; at < len(vs.running); {
		ts := m.tasks[vs.running[at]]
		if remaining := ts.start + execOn(ts.a, vs) - m.now; remaining <= window {
			at++
			continue
		}
		m.stop(ts) // removes vs.running[at]
		m.recordAttempt(ts, "lost", "preemption notice: cannot finish before kill")
		m.retry(ts, "preempted")
	}
	m.drainUnfit(vs)
	// Order the replacement for the kill instant. Deferring the
	// decision keeps the two policies' bills symmetric — an on-demand
	// instance bought a whole notice lead early is pure cost, since the
	// doomed VM is still working — and lets the capacity gate decline
	// the purchase entirely when the run has finished or freed enough
	// slots by then. The acquire timer fires before the kill event is
	// handled, so the replacement is in the fleet the moment capacity
	// is lost.
	m.queueAcquire(ev.Market.KillAt, vs.idx)
}

// drainUnfit repins every queued task that cannot finish before the
// VM's pending kill, simulating the FIFO drain of its slots. The
// fitting prefix stays queued, keeping the doomed VM productive
// through the notice window; everything else reassigns now, before
// its start would be wasted.
func (m *Master) drainUnfit(vs *vmState) {
	free := m.runningFree(vs)
	var keep, drop []int
	for _, i := range vs.queue {
		ts := m.tasks[i]
		est := execOn(ts.a, vs)
		at := minSlot(free)
		start := free[at]
		if start < m.now {
			start = m.now
		}
		if ts.nextAt > start {
			start = ts.nextAt
		}
		if start+est <= vs.killAt {
			free[at] = start + est
			keep = append(keep, i)
		} else {
			drop = append(drop, i)
		}
	}
	vs.queue = keep
	for _, i := range drop {
		ts := m.tasks[i]
		ts.queued = false
		m.enqueue(ts) // repins: the VM is cordoned
	}
}

// queueAcquire schedules a deferred just-in-time replacement purchase
// for the doomed VM m.vms[idx], keyed (time, VM index) so acquisitions
// process deterministically.
func (m *Master) queueAcquire(at float64, idx int) {
	m.acq.Push(des.Key{Time: at, Seq: int64(idx)}, struct{}{})
}

// processAcquires settles every deferred purchase that has come due,
// re-evaluating the capacity gate at fire time: a replacement is only
// bought if the fleet still cannot absorb the unfinished work without
// the doomed VM.
func (m *Master) processAcquires() {
	for len(m.acq) > 0 && m.acq[0].Time <= m.now {
		vs := m.vms[m.acq[0].Seq]
		m.acq.Pop()
		if !vs.remediated && !vs.dead && m.needsCapacity(vs) {
			m.remediate(vs)
		}
	}
}

// onVMKill executes a traced preemption: the VM dies, its in-flight
// attempts retry immediately (no backoff — the failure was not the
// task's fault), its queue repins, and a replacement is acquired if
// the notice path did not already buy one.
func (m *Master) onVMKill(ev Event) {
	vs := m.vmByID[ev.Market.VM]
	if vs == nil || vs.dead {
		return
	}
	m.preempted++
	vs.dead = true
	orphaned := append([]int(nil), vs.queue...)
	vs.queue = nil
	for len(vs.running) > 0 {
		ts := m.tasks[vs.running[0]]
		m.stop(ts)
		m.recordAttempt(ts, "lost", "vm preempted")
		m.retry(ts, "preempted")
	}
	if !vs.remediated && m.needsCapacity(vs) {
		m.remediate(vs)
	}
	for _, i := range orphaned {
		ts := m.tasks[i]
		ts.queued = false
		m.enqueue(ts) // repins via the dead-VM path
	}
}

// onVMHealth applies a traced health change: the factor scales every
// later dispatch's duration estimate and lease on that VM.
func (m *Master) onVMHealth(ev Event) {
	vs := m.vmByID[ev.Market.VM]
	if vs == nil || vs.dead {
		return
	}
	f := ev.Market.Factor
	if f < 1 {
		f = 1
	}
	if f > 1 && f != vs.slow {
		m.degradedCount++
	}
	vs.slow = f
}

// execOn is nominalExec on vs, stretched by the VM's traced health
// factor while it is degraded.
func execOn(a *dag.Activation, vs *vmState) float64 {
	est := nominalExec(a, vs.vm)
	if vs.slow > 1 {
		est *= vs.slow
	}
	return est
}

// needsCapacity decides whether losing vs justifies buying a
// replacement: the rest of the fleet must not already have enough
// free slots for everything still unfinished. A momentarily idle VM
// is still worth replacing mid-run — its slots would have carried
// later waves — while a tail-end loss with plenty of spare capacity
// is not.
func (m *Master) needsCapacity(vs *vmState) bool {
	unfinished := len(m.tasks) - m.done - m.abandoned
	free := 0
	for _, o := range m.vms {
		if o == vs || o.dead || o.cordoned {
			continue
		}
		free += o.slots - len(o.running)
	}
	return unfinished > free
}

// minSlot returns the index of the earliest-free slot time.
func minSlot(free []float64) int {
	at := 0
	for s := 1; s < len(free); s++ {
		if free[s] < free[at] {
			at = s
		}
	}
	return at
}

// runningFree returns when each of the VM's slots frees after its
// running attempt (now, for an idle slot).
func (m *Master) runningFree(vs *vmState) []float64 {
	free := make([]float64, 0, vs.slots)
	for _, i := range vs.running {
		ts := m.tasks[i]
		free = append(free, ts.start+execOn(ts.a, vs))
	}
	for len(free) < vs.slots {
		free = append(free, m.now)
	}
	return free
}

// slotTimes simulates the FIFO drain of a VM's slots: the returned
// times are when each slot frees after its running attempt and the
// already-queued work complete.
func (m *Master) slotTimes(vs *vmState) []float64 {
	free := m.runningFree(vs)
	for _, i := range vs.queue {
		at := minSlot(free)
		start := free[at]
		if start < m.now {
			start = m.now
		}
		free[at] = start + execOn(m.tasks[i].a, vs)
	}
	return free
}

// fitsBeforeKill reports whether a task queued on a noticed VM now
// would still finish before the pending kill, behind the VM's running
// attempts and already-queued work.
func (m *Master) fitsBeforeKill(vs *vmState, ts *taskState) bool {
	free := m.slotTimes(vs)
	est := execOn(ts.a, vs)
	start := free[minSlot(free)]
	if start < m.now {
		start = m.now
	}
	if ts.nextAt > start {
		start = ts.nextAt
	}
	return start+est <= vs.killAt
}

// remediate acquires an on-demand replacement for a doomed VM: same
// type, owned by the VM's worker (or the lowest live worker), usable
// after the provider's traced boot delay and billed from now. The
// replacement has a fresh VM ID, so it is a reassignment candidate but
// never a traced kill target.
func (m *Master) remediate(vs *vmState) {
	vs.remediated = true
	off, ok := m.market.Offer(vs.vm.ID)
	if !ok {
		return // replacement of a replacement: untraced, nothing to buy against
	}
	asg, _ := m.market.AssignFor(vs.vm.ID)
	owner := vs.owner
	if !m.alive[owner] {
		owner = -1
		for _, w := range m.workerIDs {
			if m.alive[w] {
				owner = w
				break
			}
		}
		if owner < 0 {
			return // no live worker to own it; the run is already failing
		}
	}
	m.maxVMID++
	nv := &vmState{
		vm:      &cloud.VM{ID: m.maxVMID, Type: vs.vm.Type, Site: vs.vm.Site},
		owner:   owner,
		slots:   vs.slots,
		running: make([]int32, 0, vs.slots),
		idx:     len(m.vms),
		slow:    1,
		bootAt:  m.now + off.BootDelay,
	}
	m.vms = append(m.vms, nv)
	m.vmByID[nv.vm.ID] = nv
	m.remediated++
	m.bills = append(m.bills, replacementBill{provider: asg.Provider, typ: asg.Type, from: m.now})
	if m.sink != nil {
		m.sink.Emit(telemetry.ExecRemediateEvent{
			FromVM: vs.vm.ID, NewVM: nv.vm.ID, Time: m.now, BootAt: nv.bootAt,
		})
	}
}

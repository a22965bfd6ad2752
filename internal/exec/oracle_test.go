package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/market"
	"reassign/internal/provenance"
	"reassign/internal/trace"
)

// scanDeadline is the O(tasks) deadline the timer heap replaced: every
// running lease and every pending backoff gate, plus the boot and
// acquire terms.
func scanDeadline(m *Master) float64 {
	dl := Forever
	for _, ts := range m.tasks {
		if ts.running && ts.lease < dl {
			dl = ts.lease
		}
		if ts.queued && ts.nextAt > m.now && ts.nextAt < dl {
			dl = ts.nextAt
		}
	}
	for _, vs := range m.vms {
		if !vs.dead && len(vs.queue) > 0 && vs.bootAt > m.now && vs.bootAt < dl {
			dl = vs.bootAt
		}
	}
	if len(m.acq) > 0 && m.acq[0].Time < dl {
		dl = m.acq[0].Time
	}
	return dl
}

// sortedResults is the Results order the completion log replaced: every
// task in index order, stably sorted finished-first by finish time.
func sortedResults(m *Master) []TaskResult {
	res := make([]TaskResult, 0, len(m.tasks))
	for _, ts := range m.tasks {
		res = append(res, ts.result())
	}
	sort.SliceStable(res, func(i, j int) bool {
		a, b := res[i], res[j]
		if a.Done != b.Done {
			return a.Done
		}
		if !a.Done {
			return false
		}
		return a.Finish < b.Finish
	})
	return res
}

// scanRunning is the scan each VM's running set replaced: the indices
// of the running tasks pinned to the VM, ascending.
func scanRunning(m *Master, vs *vmState) []int32 {
	var run []int32
	for _, ts := range m.tasks {
		if ts.running && ts.vm == vs.vm.ID {
			run = append(run, int32(ts.a.Index))
		}
	}
	return run
}

// turnOracle checks the master's incremental bookkeeping against the
// scans it replaced, once per event-loop turn: the timer heap's shape
// and entries, its deadline against scanDeadline, each VM queue's
// index order, each VM's running set against scanRunning (every one of
// those attempts on the VM's owner), and report against sortedResults.
func turnOracle(m *Master) error {
	live := make(map[int64]bool)
	for i, it := range m.timers {
		if p := (i - 1) / 4; i > 0 && it.Before(&m.timers[p].Key) {
			return fmt.Errorf("timer heap out of order at %d", i)
		}
		if ts := m.tasks[it.Seq]; ts.timed && it.Time <= ts.wakeAt() {
			live[it.Seq] = true
		}
	}
	for _, ts := range m.tasks {
		if ts.timed && !ts.running && !ts.queued {
			return fmt.Errorf("task %s has a stale timer while neither running nor queued", ts.a.ID)
		}
		if (ts.running || (ts.queued && ts.nextAt > m.now)) && !live[int64(ts.a.Index)] {
			return fmt.Errorf("task %s needs a timer and has none", ts.a.ID)
		}
	}
	if want, got := scanDeadline(m), m.deadline(); got != want {
		return fmt.Errorf("deadline at t=%v: heap %v, scan %v", m.now, got, want)
	}
	for _, vs := range m.vms {
		if !sort.IntsAreSorted(vs.queue) {
			return fmt.Errorf("vm %d queue out of index order: %v", vs.vm.ID, vs.queue)
		}
		if want := scanRunning(m, vs); !slices.Equal(vs.running, want) {
			return fmt.Errorf("vm %d running set %v, scan %v", vs.vm.ID, vs.running, want)
		}
		for _, i := range vs.running {
			if w := m.tasks[i].worker; w != vs.owner {
				return fmt.Errorf("task %s runs on vm %d for worker %d, owner %d", m.tasks[i].a.ID, vs.vm.ID, w, vs.owner)
			}
		}
	}
	rep := m.report(time.Now())
	if want := sortedResults(m); !reflect.DeepEqual(rep.Results, want) {
		return fmt.Errorf("report at t=%v: results differ from the stable sort", m.now)
	}
	return nil
}

// retryOrdered checks that lapsed leases and a lost worker's
// attempts were retried in task-index order: the "expired" attempt
// rows of one expiry pass share its instant, the "worker lost" rows of
// one loss share its worker (merged across its VMs), and each group
// must ascend by index, as a scan over the tasks emits them.
func retryOrdered(w *dag.Workflow, store *provenance.Store) error {
	last := make(map[string]int)
	for _, a := range store.Attempts() {
		var group string
		switch {
		case a.Outcome == "expired":
			group = fmt.Sprintf("expiry at t=%v", a.EndAt)
		case a.Error == "worker lost":
			group = fmt.Sprintf("loss of worker %d", a.Worker)
		default:
			continue
		}
		i := w.Get(a.TaskID).Index
		if l, ok := last[group]; ok && i < l {
			return fmt.Errorf("%s: task %d retried after task %d", group, i, l)
		}
		last[group] = i
	}
	return nil
}

// multiVMLoss reports whether a worker was lost while it held attempts
// on two or more VMs — the case onWorkerLost merges running sets for.
func multiVMLoss(store *provenance.Store) bool {
	vms := make(map[int]map[int]bool)
	for _, a := range store.Attempts() {
		if a.Outcome != "lost" || a.Error != "worker lost" {
			continue
		}
		if vms[a.Worker] == nil {
			vms[a.Worker] = make(map[int]bool)
		}
		vms[a.Worker][a.VMID] = true
		if len(vms[a.Worker]) > 1 {
			return true
		}
	}
	return false
}

// TestTurnOracle is the differential check on the master's per-event
// bookkeeping: randomised InProc runs with injected worker deaths,
// failing attempts and their backoffs, heartbeats, swallowed results
// (lease expiry), runtimes that tie or not, and in half the runs a
// hostile market — notices, cordons, kills and booting replacements —
// with every turn checked by turnOracle and the expiry and loss retry
// orders checked after the run.
func TestTurnOracle(t *testing.T) {
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	hostile, _ := market.RegimeByName("hostile")
	fl := cloud.DefaultFluctuation()
	expiries, multiLosses := 0, 0
	f := func(seed int64, nodes, workers, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		maxRt := 40.0
		if mode&8 != 0 {
			maxRt = 200 // attempts that outlast a preemption notice's lead
		}
		w := trace.RandomLayered(rng, 10+int(nodes)%70, 1+int(nodes)%6, 3, 1, maxRt)
		sim := SimRunner{Fluct: &fl, Seed: seed}
		if mode&4 == 0 {
			// Whole-second runtimes without fluctuation: attempts finish
			// together, so the completion log has equal-finish runs.
			for _, a := range w.Activations() {
				a.Runtime = float64(1 + int(a.Runtime)%4)
			}
			sim = SimRunner{}
		}
		var tr Transport = &InProc{
			Workers:        1 + int(workers)%4,
			HeartbeatEvery: 2 + float64(mode%5),
			Runner:         FailingRunner{Inner: sim, Rate: 0.15, Seed: seed},
		}
		tr = &dropResults{Transport: tr, n: int(mode % 4)}
		tr = &Fault{Inner: tr, Rate: 0.02, Seed: seed, MaxKills: 2}
		store := provenance.NewStore()
		// A TTL longer than most estimates gives whole dispatch waves
		// the same lease, so expiries land together.
		opts := []Option{WithStore(store, "oracle"), WithLease(45, 1)}
		if mode&1 == 1 {
			mt, err := market.Generate(market.DefaultCatalogue(), fleet, hostile, seed, 600)
			if err != nil {
				t.Log(err)
				return false
			}
			pb, err := market.NewPlayback(mt, nil)
			if err != nil {
				t.Log(err)
				return false
			}
			tr = NewMarketFeed(tr, pb)
			opts = append(opts, WithMarket(pb))
		}
		m, err := New(w, fleet, randomPlan(w, fleet, rng), tr, opts...)
		if err != nil {
			t.Log(err)
			return false
		}
		m.backoffBase, m.backoffMax, m.maxAttempts = 0.5, 8, 4
		var bad error
		m.checkTurn = func() {
			if bad == nil {
				bad = turnOracle(m)
			}
		}
		m.Run(context.Background()) // abandons and lost fleets are fair outcomes here
		if bad == nil {
			bad = turnOracle(m)
		}
		if bad == nil {
			bad = retryOrdered(w, store)
		}
		if bad != nil {
			t.Logf("seed %d nodes %d workers %d mode %d: %v", seed, nodes, workers, mode, bad)
			return false
		}
		for _, a := range store.Attempts() {
			if a.Outcome == "expired" {
				expiries++
			}
		}
		if multiVMLoss(store) {
			multiLosses++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if expiries == 0 {
		t.Fatal("no run expired a lease; the expiry path went unchecked")
	}
	if multiLosses == 0 {
		t.Fatal("no run lost a worker holding attempts on two VMs; the merged loss path went unchecked")
	}
}

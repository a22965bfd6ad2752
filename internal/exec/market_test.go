package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/market"
	"reassign/internal/provenance"
	"reassign/internal/trace"
)

// execTrace hand-builds a valid trace covering the fleet (all VMs spot
// on aws) with the given events and wraps it in a playback.
func execTrace(t *testing.T, fleet *cloud.Fleet, horizon float64, events []market.VMEvent) *market.Playback {
	t.Helper()
	tr := &market.Trace{
		Version: market.TraceVersion, Regime: "hand",
		Horizon: horizon, PriceStep: horizon, Events: events,
	}
	types := map[string]bool{}
	for _, vm := range fleet.VMs {
		types[vm.Type.Name] = true
		tr.Assign = append(tr.Assign, market.VMAssign{
			VM: vm.ID, Provider: "aws", Type: vm.Type.Name, Spot: true,
		})
	}
	var names []string
	for n := range types {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tr.Prices = append(tr.Prices, market.PriceSeries{
			Provider: "aws", Type: n,
			Points: []market.PricePoint{{At: 0, Price: 0.01}},
		})
	}
	pb, err := market.NewPlayback(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// pinAll pins every activation to one VM.
func pinAll(w *dag.Workflow, vm int) core.Plan {
	m := make(map[string]int, w.Len())
	for _, a := range w.Activations() {
		m[a.ID] = vm
	}
	return core.NewPlan(m)
}

// TestMarketNoticeCordonDrainRemediate is the acceptance test for
// acting before failure: with a notice window too short for any
// queued task to finish, every queued task of the noticed VM is
// reassigned at the notice, the running attempts (which do fit) ride
// to completion, and the kill then finds nothing to recover — zero
// retries, zero lease expiries, zero lost attempts.
func TestMarketNoticeCordonDrainRemediate(t *testing.T) {
	w := dag.New("wide")
	for i := 0; i < 6; i++ {
		w.MustAdd(fmt.Sprintf("t%d", i), "act", 10)
	}
	fleet := twoLarge(t) // VMs 0 and 1, two slots each
	// Notice at 5, kill at 12: the two attempts running since 0 finish
	// at 10 and ride; the four queued 10s tasks cannot start and still
	// beat the kill, so they drain.
	pb := execTrace(t, fleet, 1000, []market.VMEvent{
		{VM: 1, Kind: market.EvNotice, At: 5, KillAt: 12},
		{VM: 1, Kind: market.EvKill, At: 12},
	})
	store := provenance.NewStore()
	m, err := New(w, fleet, pinAll(w, 1),
		NewMarketFeed(&InProc{Workers: 2, Runner: SimRunner{}}, pb),
		WithStore(store, "t"), WithMarket(pb))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 6 || rep.Abandoned != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.PreemptNotices != 1 || rep.Cordoned != 1 || rep.Remediated != 1 || rep.Preempted != 1 {
		t.Fatalf("notices=%d cordoned=%d remediated=%d preempted=%d, want 1/1/1/1",
			rep.PreemptNotices, rep.Cordoned, rep.Remediated, rep.Preempted)
	}
	// The four tasks queued behind VM 1's two slots were drained at the
	// notice.
	if rep.Reassigned != 4 {
		t.Fatalf("reassigned = %d, want 4", rep.Reassigned)
	}
	// Acting on the notice means the kill finds nothing to recover:
	// zero retries, zero expired or lost attempts.
	if rep.Retries != 0 {
		t.Fatalf("retries = %d, want 0 when acting before failure", rep.Retries)
	}
	for _, a := range store.Attempts() {
		if a.Outcome != "ok" {
			t.Fatalf("attempt %+v, want every outcome ok", a)
		}
		if a.VMID == 1 && a.StartAt >= 5 {
			t.Fatalf("task %s dispatched to cordoned vm 1 at %v", a.TaskID, a.StartAt)
		}
	}
	if rep.Cost <= 0 {
		t.Fatalf("cost = %v, want > 0", rep.Cost)
	}
}

// TestMarketReactiveOnlyRetriesAfterKill pins one long task on the
// doomed VM: a reactive-only master ignores the notice, loses the
// attempt at the kill and retries it immediately (no backoff) on a
// surviving VM. No replacement is bought — the surviving VM's free
// slot already covers everything unfinished, so the capacity gate
// skips the acquire.
func TestMarketReactiveOnlyRetriesAfterKill(t *testing.T) {
	w := dag.New("single")
	w.MustAdd("a", "act", 20)
	fleet, err := cloud.NewFleet("two", []cloud.VMType{cloud.T2Micro}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	pb := execTrace(t, fleet, 1000, []market.VMEvent{
		{VM: 1, Kind: market.EvNotice, At: 4, KillAt: 5},
		{VM: 1, Kind: market.EvKill, At: 5},
	})
	store := provenance.NewStore()
	m, err := New(w, fleet, pinAll(w, 1),
		NewMarketFeed(&InProc{Workers: 1, Runner: SimRunner{}}, pb),
		WithStore(store, "t"), WithMarket(pb), WithReactiveOnly())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 || rep.Retries != 1 || rep.Reassigned != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.PreemptNotices != 1 || rep.Preempted != 1 || rep.Cordoned != 0 || rep.Remediated != 0 {
		t.Fatalf("notices=%d preempted=%d cordoned=%d remediated=%d, want 1/1/0/0",
			rep.PreemptNotices, rep.Preempted, rep.Cordoned, rep.Remediated)
	}
	var outcomes []string
	for _, a := range store.Attempts() {
		outcomes = append(outcomes, a.Outcome)
	}
	if len(outcomes) != 2 || outcomes[0] != "lost" || outcomes[1] != "ok" {
		t.Fatalf("attempt outcomes = %v, want [lost ok]", outcomes)
	}
	// Killed at 5, restarted immediately on VM 0, 20s of work: 25.
	if rep.Makespan != 25 {
		t.Fatalf("makespan = %v, want 25 (immediate retry, no backoff)", rep.Makespan)
	}
	// No replacement was bought, so the bill is exactly the traced
	// fleet's: per-second spot prices, VM 1 clipped at its kill.
	want := pb.FleetCost(rep.Makespan)
	if rep.Cost != want.Total {
		t.Fatalf("cost = %v, want traced fleet bill %v", rep.Cost, want.Total)
	}
	if !reflect.DeepEqual(rep.CostByProvider, want.ByProvider) {
		t.Fatalf("cost by provider = %+v, want %+v", rep.CostByProvider, want.ByProvider)
	}
}

// TestMarketHealthSlowsExec degrades the only VM 2x from the start:
// the master stretches its duration estimates and leases, so the run
// completes at twice the healthy makespan with no lease expiries.
func TestMarketHealthSlowsExec(t *testing.T) {
	w := dag.New("pair")
	w.MustAdd("a", "act", 10)
	w.MustAdd("b", "act", 10)
	fleet, err := cloud.NewFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(events []market.VMEvent) *Report {
		pb := execTrace(t, fleet, 1000, events)
		m, err := New(w, fleet, pinAll(w, 0),
			NewMarketFeed(&InProc{Workers: 1, Runner: SimRunner{}}, pb),
			WithMarket(pb))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(nil)
	slow := run([]market.VMEvent{{VM: 0, Kind: market.EvDegrade, At: 0, Slow: 2}})
	// The initial dispatch wave precedes event delivery, so the first
	// task runs at full speed and only the second pays the 2x factor:
	// 10 + 20 against the healthy 10 + 10.
	if want := base.Makespan + 10; slow.Makespan != want {
		t.Fatalf("degraded makespan %v, want %v", slow.Makespan, want)
	}
	if slow.Degraded != 1 || slow.Retries != 0 {
		t.Fatalf("degraded=%d retries=%d, want 1 and 0", slow.Degraded, slow.Retries)
	}
}

func TestMarketExecDeterministic(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(9)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	regime, _ := market.RegimeByName("volatile")
	mt, err := market.Generate(market.DefaultCatalogue(), fleet, regime, 13, 7200)
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	run := func() ([]byte, *Report) {
		pb, err := market.NewPlayback(mt, nil)
		if err != nil {
			t.Fatal(err)
		}
		store := provenance.NewStore()
		store.SetNow(func() time.Time { return fixed })
		m, err := New(w, fleet, spreadPlan(w, fleet),
			NewMarketFeed(&InProc{Workers: 4, Runner: SimRunner{}}, pb),
			WithStore(store, "det"), WithMarket(pb))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep
	}
	b1, r1 := run()
	b2, r2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("provenance stores differ between identical market runs")
	}
	if r1.Makespan != r2.Makespan || r1.Cost != r2.Cost {
		t.Fatalf("makespan/cost differ: %v/%v vs %v/%v", r1.Makespan, r1.Cost, r2.Makespan, r2.Cost)
	}
	if r1.PreemptNotices != r2.PreemptNotices || r1.Preempted != r2.Preempted ||
		r1.Remediated != r2.Remediated || r1.Reassigned != r2.Reassigned {
		t.Fatalf("market counters differ: %+v vs %+v", r1, r2)
	}
}

func TestNewRejectsUncoveredMarketTrace(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	one, err := cloud.NewFleet("one", []cloud.VMType{cloud.T2Large}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	pb := execTrace(t, one, 100, nil)
	_, err = New(w, fleet, spreadPlan(w, fleet),
		NewMarketFeed(&InProc{Workers: 1, Runner: SimRunner{}}, pb), WithMarket(pb))
	if err == nil {
		t.Fatal("market trace missing a fleet VM accepted")
	}
}

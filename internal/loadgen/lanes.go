package loadgen

import (
	"fmt"
	"math"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// Policy names the competing scheduling disciplines. Every lane
// replays the same trace; only the policy differs.
type Policy string

const (
	// PolicyReassign learns a plan per submission with the paper's
	// Q-learning pipeline, warm-starting from a per-structure Q table
	// that persists across the lane (the daemon's cache, replayed
	// offline).
	PolicyReassign Policy = "reassign"
	// PolicyHEFT uses the static HEFT list-scheduling plan.
	PolicyHEFT Policy = "heft"
	// PolicyGreedy dispatches FIFO and schedules each workflow with
	// the immediate minimum-completion-time rule.
	PolicyGreedy Policy = "greedy"
	// PolicyEDF admits from the queue in earliest-deadline-first order
	// (deadline-free jobs go last, FIFO among themselves), scheduling
	// each workflow greedily.
	PolicyEDF Policy = "edf"
)

// AllPolicies is the default lane set.
func AllPolicies() []Policy {
	return []Policy{PolicyReassign, PolicyHEFT, PolicyGreedy, PolicyEDF}
}

// LaneConfig tunes the replay shared by every lane.
type LaneConfig struct {
	// Fleet is the cluster every workflow runs on.
	Fleet api.FleetSpec
	// Slots is the number of workflows the cluster executes
	// concurrently (default 4). Arrivals beyond it queue.
	Slots int
	// Episodes is the learning budget per submission in the reassign
	// lane (default 24; the warm table carries learning across
	// same-structure submissions, so small budgets converge).
	Episodes int
	// Policies selects the lanes (default AllPolicies).
	Policies []Policy
}

func (c *LaneConfig) defaults() {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Episodes <= 0 {
		c.Episodes = 24
	}
	if len(c.Policies) == 0 {
		c.Policies = AllPolicies()
	}
}

// JobOutcome is one submission's fate in one lane, in virtual
// seconds.
type JobOutcome struct {
	ID         string  `json:"id"`
	Tenant     string  `json:"tenant"`
	Arrival    float64 `json:"arrival"`
	Start      float64 `json:"start"`
	Finish     float64 `json:"finish"`
	Wait       float64 `json:"wait"`
	Service    float64 `json:"service"`
	DeadlineAt float64 `json:"deadline_at,omitempty"` // absolute; 0 = none
	SLAMet     bool    `json:"sla_met,omitempty"`     // valid when DeadlineAt > 0
	// Cost is the job's bill in USD: the fleet's nominal rate over the
	// service time its executor slot was held.
	Cost float64 `json:"cost"`
}

// Slowdown is the job's response time over its service time (≥ 1;
// 1 = no queueing).
func (o JobOutcome) Slowdown() float64 {
	if o.Service <= 0 {
		return 1
	}
	return (o.Wait + o.Service) / o.Service
}

// LaneResult is one policy's full replay of the trace.
type LaneResult struct {
	Policy   Policy       `json:"policy"`
	Outcomes []JobOutcome `json:"outcomes"`
	// Makespan is the finish time of the last job (virtual seconds).
	Makespan float64 `json:"makespan"`
	// Throughput is completed jobs per 1000 virtual seconds.
	Throughput float64 `json:"throughput"`
}

// laneJob is an arrival resolved against the catalog: built workflow,
// absolute deadline.
type laneJob struct {
	arr        Arrival
	wf         int // catalog index
	deadlineAt float64
}

// RunLanes replays the trace once per policy on identical lanes —
// same arrivals, same workflows, same fleet, same deadlines — and
// reports per-tenant fairness, SLA attainment and queueing behaviour
// for each. The replay is a deterministic single-threaded event loop,
// so a fixed trace yields a bit-identical report on every run.
func RunLanes(tr *Trace, cfg LaneConfig) (*Report, error) {
	cfg.defaults()
	if len(tr.Arrivals) == 0 {
		return nil, fmt.Errorf("loadgen: trace has no arrivals")
	}
	fleet, err := cfg.Fleet.Build()
	if err != nil {
		return nil, err
	}
	workflows := make([]*dag.Workflow, len(tr.Workflows))
	for i, spec := range tr.Workflows {
		w, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("loadgen: catalog workflow %d: %w", i, err)
		}
		workflows[i] = w
	}

	// Reference service time per catalog entry: the greedy-immediate
	// makespan on this fleet. Deadlines resolve against it identically
	// in every lane, so the SLA each policy faces is the same.
	ref := make([]float64, len(workflows))
	for i, w := range workflows {
		m, err := planMakespan(w, fleet, &sched.MCT{}, tr.Seed)
		if err != nil {
			return nil, fmt.Errorf("loadgen: reference service for workflow %d: %w", i, err)
		}
		ref[i] = m
	}

	jobs := make([]laneJob, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		if a.Workflow < 0 || a.Workflow >= len(workflows) {
			return nil, fmt.Errorf("loadgen: arrival %s references workflow %d of %d", a.ID, a.Workflow, len(workflows))
		}
		j := laneJob{arr: a, wf: a.Workflow}
		if a.DeadlineFactor > 0 {
			j.deadlineAt = a.At + a.DeadlineFactor*ref[a.Workflow]
		}
		jobs[i] = j
	}

	rep := &Report{Seed: tr.Seed, Jobs: len(jobs), Tenants: tr.Tenants()}
	for _, policy := range cfg.Policies {
		lane, err := runLane(jobs, workflows, fleet, policy, cfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: lane %s: %w", policy, err)
		}
		rep.Lanes = append(rep.Lanes, buildLaneReport(lane, rep.Tenants))
	}
	return rep, nil
}

// runLane replays the trace under one policy: arrivals queue, Slots
// executor slots serve them, and each dispatch's service time is the
// policy's simulated plan makespan for that workflow.
func runLane(jobs []laneJob, workflows []*dag.Workflow, fleet *cloud.Fleet, policy Policy, cfg LaneConfig) (*LaneResult, error) {
	svc, err := newServiceOracle(policy, workflows, fleet, cfg)
	if err != nil {
		return nil, err
	}
	res := &LaneResult{Policy: policy, Outcomes: make([]JobOutcome, len(jobs))}
	slots := make([]float64, cfg.Slots) // each slot's free-at time
	var waiting []int                   // job indices queued, arrival order
	arrIdx := 0
	for dispatched := 0; dispatched < len(jobs); dispatched++ {
		// Earliest free slot.
		s := 0
		for k := 1; k < len(slots); k++ {
			if slots[k] < slots[s] {
				s = k
			}
		}
		t := slots[s]
		if len(waiting) == 0 {
			// Idle: jump to the next arrival.
			t = math.Max(t, jobs[arrIdx].arr.At)
		}
		// Admit everything that has arrived by dispatch time, so queue
		// disciplines see the full backlog.
		for arrIdx < len(jobs) && jobs[arrIdx].arr.At <= t {
			waiting = append(waiting, arrIdx)
			arrIdx++
		}
		pick := 0
		if policy == PolicyEDF {
			for k := 1; k < len(waiting); k++ {
				if edfBefore(jobs[waiting[k]], jobs[waiting[pick]]) {
					pick = k
				}
			}
		}
		idx := waiting[pick]
		waiting = append(waiting[:pick], waiting[pick+1:]...)

		j := jobs[idx]
		service, err := svc(j)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.arr.ID, err)
		}
		finish := t + service
		slots[s] = finish
		res.Outcomes[idx] = JobOutcome{
			ID:         j.arr.ID,
			Tenant:     j.arr.Tenant,
			Arrival:    j.arr.At,
			Start:      t,
			Finish:     finish,
			Wait:       t - j.arr.At,
			Service:    service,
			DeadlineAt: j.deadlineAt,
			SLAMet:     j.deadlineAt > 0 && finish <= j.deadlineAt,
			Cost:       fleet.Cost(service),
		}
		if finish > res.Makespan {
			res.Makespan = finish
		}
	}
	if res.Makespan > 0 {
		res.Throughput = float64(len(jobs)) / res.Makespan * 1000
	}
	return res, nil
}

// edfBefore orders the waiting queue for the EDF lane: earliest
// absolute deadline first, deadline-free jobs last, ties broken by
// arrival order (the queue holds indices in arrival order, so the
// strict < keeps the earlier arrival on ties).
func edfBefore(a, b laneJob) bool {
	da, db := a.deadlineAt, b.deadlineAt
	if da == 0 {
		da = math.Inf(1)
	}
	if db == 0 {
		db = math.Inf(1)
	}
	return da < db
}

// serviceFn resolves one job's service time under a lane's policy.
type serviceFn func(laneJob) (float64, error)

// newServiceOracle builds the per-policy service-time function.
// Static policies (HEFT, greedy, EDF) cache one makespan per catalog
// entry; the reassign lane learns per submission, warm-starting from
// a per-structure Q table that persists across the lane — so repeated
// structures keep improving, the open-system analogue of the daemon's
// warm cache.
func newServiceOracle(policy Policy, workflows []*dag.Workflow, fleet *cloud.Fleet, cfg LaneConfig) (serviceFn, error) {
	switch policy {
	case PolicyHEFT:
		cache := make(map[int]float64, len(workflows))
		return func(j laneJob) (float64, error) {
			if m, ok := cache[j.wf]; ok {
				return m, nil
			}
			m, err := planMakespan(workflows[j.wf], fleet, &sched.HEFT{}, j.arr.Seed)
			if err != nil {
				return 0, err
			}
			cache[j.wf] = m
			return m, nil
		}, nil
	case PolicyGreedy, PolicyEDF:
		cache := make(map[int]float64, len(workflows))
		return func(j laneJob) (float64, error) {
			if m, ok := cache[j.wf]; ok {
				return m, nil
			}
			m, err := planMakespan(workflows[j.wf], fleet, &sched.MCT{}, j.arr.Seed)
			if err != nil {
				return 0, err
			}
			cache[j.wf] = m
			return m, nil
		}, nil
	case PolicyReassign:
		tables := map[string]*rl.Table{}
		return func(j laneJob) (float64, error) {
			w := workflows[j.wf]
			sig := api.StructureSignature(w, fleet)
			opts := []core.Option{core.WithSeed(j.arr.Seed)}
			if t := tables[sig]; t != nil {
				opts = append(opts, core.WithTable(t))
			}
			learner, err := core.NewLearner(core.Config{
				Workflow: w,
				Fleet:    fleet,
				Episodes: cfg.Episodes,
			}, opts...)
			if err != nil {
				return 0, err
			}
			res, err := learner.Learn()
			if err != nil {
				return 0, err
			}
			tables[sig] = res.Table
			return res.PlanMakespan, nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
}

// planMakespan simulates one workflow under a scheduler and returns
// its makespan (deterministic: no fluctuation model).
func planMakespan(w *dag.Workflow, fleet *cloud.Fleet, s sim.Scheduler, seed int64) (float64, error) {
	res, err := sim.Run(w, fleet, s, sim.Config{Seed: seed, SkipPlan: true})
	if err != nil {
		return 0, err
	}
	if res.State != sim.FinishedOK {
		return 0, fmt.Errorf("simulation ended in state %v", res.State)
	}
	return res.Makespan, nil
}

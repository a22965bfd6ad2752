package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/metrics"
	"reassign/internal/randsrc"
	"reassign/internal/rl"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

// BootstrapScope selects the action set behind Algorithm 2's
// max_a' Q(s', a'): the paper's prose ("all values of Q for each
// schedule action") suggests the whole remaining table, while a
// strict MDP reading would only admit actions available in s'.
// AllPending reproduces the paper's Table III shape (γ=1.0, ε=0.1
// dominating) and is the default; AvailableOnly is the ablation.
type BootstrapScope int

const (
	// AllPending maximises over every unfinished activation × every
	// VM.
	AllPending BootstrapScope = iota
	// AvailableOnly maximises over dependency-free, unscheduled
	// activations × idle VMs, bootstrapping 0 in "unavailable" states.
	AvailableOnly
)

// UpdateRule selects the temporal-difference target.
type UpdateRule int

const (
	// QLearning bootstraps on max_a' Q(s', a') — the paper's rule.
	QLearning UpdateRule = iota
	// SARSA bootstraps on the Q value of a policy-sampled next action
	// (on-policy ablation).
	SARSA
	// DoubleQ maintains two tables and cross-evaluates the argmax
	// (van Hasselt's Double Q-learning), correcting the maximisation
	// bias that inflates Q under the paper's rule.
	DoubleQ
)

// Params are the learning parameters of Algorithm 2.
type Params struct {
	Alpha   float64 // learning rate α
	Gamma   float64 // discount γ
	Epsilon float64 // exploitation probability ε (paper convention)
	Mu      float64 // exec-vs-queue balance μ in the performance index
	Rho     float64 // reward smoothing ρ

	// GammaPowerT applies the discount as γ^t with t the per-episode
	// decision counter, as written in Algorithm 2. False uses the
	// conventional constant γ (ablation).
	GammaPowerT bool
	// Scope selects which schedule actions the TD target maximises
	// over (Algorithm 2's max_a' Q(s', a') leaves this ambiguous).
	Scope BootstrapScope
	// CostWeight blends a monetary objective into the reward (the
	// paper's future-work direction): 0 = pure performance (the
	// paper's reward), 1 = pure cost. The cost term rewards cheap
	// slot-seconds: 1 − 2·(slot price / max slot price).
	CostWeight float64
	// Rule selects Q-learning (default) or SARSA bootstrapping.
	Rule UpdateRule
	// Policy overrides the paper's ε-greedy exploration when non-nil.
	Policy rl.Policy
}

// DefaultParams returns the paper's fixed settings (μ=0.5) with the
// best-performing learning parameters from Table III (α=0.5, γ=1.0,
// ε=0.1) and ρ=0.5.
func DefaultParams() Params {
	return Params{Alpha: 0.5, Gamma: 1.0, Epsilon: 0.1, Mu: 0.5, Rho: 0.5, GammaPowerT: true}
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	check := func(name string, v, lo, hi float64) error {
		if math.IsNaN(v) || v < lo || v > hi {
			return fmt.Errorf("core: %s = %v outside [%v, %v]", name, v, lo, hi)
		}
		return nil
	}
	if err := check("alpha", p.Alpha, 0, 1); err != nil {
		return err
	}
	if err := check("gamma", p.Gamma, 0, 1); err != nil {
		return err
	}
	if err := check("epsilon", p.Epsilon, 0, 1); err != nil {
		return err
	}
	if err := check("mu", p.Mu, 0, 1); err != nil {
		return err
	}
	if err := check("rho", p.Rho, 0, 1); err != nil {
		return err
	}
	return check("costWeight", p.CostWeight, 0, 1)
}

// Scheduler is the ReASSIgN agent for one episode: it explores with
// the ε policy during Pick and updates the shared Q table from
// measured execution and queue times on every completion.
//
// Construct it with NewScheduler; the same Table may (and should) be
// shared across episodes — that is how learning progresses.
type Scheduler struct {
	params Params
	table  *rl.Table
	rng    *rand.Rand
	policy rl.Policy
	frozen bool // plan-extraction mode: greedy, no updates

	w            *dag.Workflow
	pending      []bool // by activation index: not yet succeeded
	npending     int
	inflight     []bool    // by activation index: currently assigned/running
	blockedBy    []int     // by activation index: count of pending parents
	maxSlotPrice float64   // most expensive slot-hour in the fleet
	tableB       *rl.Table // second table for DoubleQ (nil otherwise)
	rewardT      float64   // r^{t-1}, the running smoothed reward
	step         int       // t, the per-episode decision counter
	episodeR     float64   // Σ crisp rewards this episode (diagnostics)

	// Telemetry (instrument): nil sink disables the whole block, so
	// the uninstrumented hot path pays only a nil check.
	sink      telemetry.Sink
	episode   int                 // episode number stamped on events; -1 = extraction
	explain   rl.ExplainingPolicy // policy, when it can report greedy-vs-explore
	decisions bool                // sink asks for decision events
	qDeltaSq  float64             // Σ (ΔQ)² of this episode's TD updates
	updates   int                 // TD updates applied this episode
	greedy    int                 // placements this episode that exploited the table
	// decision is the one DecisionEvent every Pick emits a pointer to:
	// boxing a fresh 64-byte value per decision would allocate.
	decision telemetry.DecisionEvent

	// Scratch buffers, sized in Prepare and reused every call so the
	// steady-state Pick/OnTaskComplete path does not allocate.
	readyBuf []int
	idleBuf  []int
	openBuf  []int
	outBuf   []sim.Assignment
	budget   []int          // free slots by VM ID, valid within one Pick
	vmByID   []*sim.VMState // idle VM lookup by ID, valid within one Pick

	// perfBuf is the reward's performance-index vector: in VM-position
	// order, the index of every VM that has finished an activation this
	// episode — what AppendPerfIndices(nil, vms, mu) would return. A
	// VM's index changes only when an activation completes on it, which
	// is exactly when OnTaskComplete hears of it, so a completion
	// overwrites one entry, found through perfSlot[pos] (-1 until the
	// VM at that position first finishes), and the vector grows by
	// insertion at most once per VM per episode.
	perfBuf  []float64
	perfSlot []int

	// Batched TD writes. Each completion computes its update eagerly
	// (reads — and, if needed, materialises — Q(k), keeping the
	// table's rng stream identical to an immediate update) but defers
	// the store into td, the slot of the completed activation; FlushTD
	// applies them in activation order, which is each table's row
	// order. An activation completes at most once per episode, so one
	// slot each holds every write. Deferral is exact,
	// not approximate: within an episode a completed activation's row
	// is never read again (Pick, bootstrap, and doubleBootstrap only
	// touch pending rows), so no in-episode read can observe the
	// missing store.
	td  []tdSlot
	tdN int // slots holding a write

	// pmax answers the Q-learning/AllPending bootstrap incrementally.
	pmax pendingMax
	// checkNext, when set (tests only), sees every bootstrap value
	// before it enters the TD target; checkTD sees every TD write as
	// it is deferred.
	checkNext func(next float64, env *sim.Env)
	checkTD   func(tab *rl.Table, e rl.Entry)
}

// tdSlot is one activation's deferred TD write: Q(task, vm) = q in the
// table tab names.
type tdSlot struct {
	q   float64
	vm  int32
	tab uint8
}

// Values of tdSlot.tab.
const (
	tdNone uint8 = iota
	tdTableA
	tdTableB
)

var _ sim.Scheduler = (*Scheduler)(nil)
var _ sim.CompletionObserver = (*Scheduler)(nil)

// NewScheduler returns an episode agent sharing the given Q table.
// rng drives exploration (pass a distinct stream per episode for
// reproducibility).
func NewScheduler(params Params, table *rl.Table, rng *rand.Rand) (*Scheduler, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil Q table")
	}
	if rng == nil {
		rng = rand.New(randsrc.New(1))
	}
	pol := params.Policy
	if pol == nil {
		pol = rl.EpsilonGreedy{Epsilon: params.Epsilon}
	}
	return &Scheduler{params: params, table: table, rng: rng, policy: pol}, nil
}

// NewPlanExtractor returns a frozen agent that always exploits the
// table greedily and performs no updates — used to extract and
// evaluate the final scheduling plan.
func NewPlanExtractor(params Params, table *rl.Table) (*Scheduler, error) {
	s, err := NewScheduler(params, table, rand.New(randsrc.New(1)))
	if err != nil {
		return nil, err
	}
	s.policy = rl.Greedy{}
	s.frozen = true
	return s, nil
}

// reset reconfigures the agent for another episode with new params
// and a fresh exploration seed, keeping the Q table and the scratch
// buffers sized by previous Prepares. Re-seeding the existing rng
// yields the same stream as a fresh rand.New(randsrc.New(seed)), so
// the Learner's episodes are unchanged by agent reuse. The seed is
// O(1): an episode draws ~95 values, and randsrc computes only the
// state words those draws read.
func (s *Scheduler) reset(params Params, seed int64) error {
	if err := params.Validate(); err != nil {
		return err
	}
	s.params = params
	s.rng.Seed(seed)
	pol := params.Policy
	if pol == nil {
		eg := rl.EpsilonGreedy{Epsilon: params.Epsilon}
		// Boxing the policy into the interface allocates; with a
		// constant ε (the paper's setting) the previous episode's
		// value is identical, so keep it.
		if cur, ok := s.policy.(rl.EpsilonGreedy); ok && cur == eg {
			return nil
		}
		pol = eg
	}
	s.policy = pol
	return nil
}

// WithSecondTable attaches the second Q table required by the DoubleQ
// rule (shared across episodes like the primary one) and returns the
// scheduler for chaining.
func (s *Scheduler) WithSecondTable(t *rl.Table) *Scheduler {
	s.tableB = t
	return s
}

// instrument attaches a telemetry sink and the episode number stamped
// on decision events. Call it after the policy is set (NewScheduler or
// reset); a nil sink disables instrumentation entirely. Whether the
// sink asks for decision events is settled here, once per episode; a
// sink that does not ask still hears the episode's placement counts
// (placements, greedy) on its EpisodeEvent.
func (s *Scheduler) instrument(sink telemetry.Sink, episode int) {
	s.sink = sink
	s.episode = episode
	s.explain = nil
	s.decisions = telemetry.WantsDecisions(sink)
	if sink != nil {
		s.explain, _ = s.policy.(rl.ExplainingPolicy)
	}
}

// placements returns the activation→VM decisions of the current
// episode: step, the reward's decision counter t, starts at 1 in
// Prepare and advances once per placement.
func (s *Scheduler) placements() int { return s.step - 1 }

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return "ReASSIgN" }

// Prepare implements sim.Scheduler: it resets per-episode state (the
// Q table persists).
func (s *Scheduler) Prepare(w *dag.Workflow, fleet *cloud.Fleet, _ *sim.Env) error {
	// An aborted previous episode may have left buffered TD writes;
	// apply them before this episode reads the table.
	s.FlushTD()
	s.w = w
	s.maxSlotPrice = 0
	for _, vm := range fleet.VMs {
		if p := slotPrice(vm); p > s.maxSlotPrice {
			s.maxSlotPrice = p
		}
	}
	s.pmax.built = false
	n := w.Len()
	if cap(s.pending) < n {
		s.pending = make([]bool, n)
		s.inflight = make([]bool, n)
		s.blockedBy = make([]int, n)
	} else {
		s.pending = s.pending[:n]
		s.inflight = s.inflight[:n]
		s.blockedBy = s.blockedBy[:n]
	}
	for _, a := range w.Activations() {
		s.pending[a.Index] = true
		s.inflight[a.Index] = false
		s.blockedBy[a.Index] = len(a.Parents())
	}
	s.npending = n
	if cap(s.readyBuf) < n {
		s.readyBuf = make([]int, 0, n)
		s.outBuf = make([]sim.Assignment, 0, n)
	}
	if cap(s.td) < n {
		s.td = make([]tdSlot, n)
		s.pmax.heap = make([]rowMax, 0, n)
	}
	s.td = s.td[:n]
	nv := len(fleet.VMs)
	if cap(s.idleBuf) < nv {
		s.idleBuf = make([]int, 0, nv)
		s.openBuf = make([]int, 0, nv)
		s.budget = make([]int, nv)
		s.vmByID = make([]*sim.VMState, nv)
		s.perfBuf = make([]float64, 0, nv)
		s.perfSlot = make([]int, nv)
	}
	s.perfBuf, s.perfSlot = s.perfBuf[:0], s.perfSlot[:nv]
	for i := range s.perfSlot {
		s.perfSlot[i] = -1
	}
	s.rewardT = 0
	s.step = 1
	s.episodeR = 0
	s.qDeltaSq = 0
	s.updates = 0
	s.greedy = 0
	return nil
}

// Pick implements sim.Scheduler: ε-greedy VM selection for each ready
// activation, respecting slot budgets within the round. The candidate
// list is maintained incrementally — a VM drops out (in place, order
// preserved) when its last free slot is claimed. The returned slice
// is reused by the next Pick call; the engine consumes it before
// invoking the scheduler again.
func (s *Scheduler) Pick(ctx *sim.Context) []sim.Assignment {
	open := s.openBuf[:0]
	for _, v := range ctx.IdleVMs {
		id := v.VM.ID
		s.vmByID[id] = v
		s.budget[id] = v.FreeSlots()
		open = append(open, id)
	}
	out := s.outBuf[:0]
	for _, t := range ctx.Ready {
		if len(open) == 0 {
			break
		}
		var vmID int
		if s.sink != nil {
			// SelectExplained consumes the rng stream exactly as Select,
			// so instrumented runs pick identical VMs.
			greedy := false
			if s.explain != nil {
				vmID, greedy = s.explain.SelectExplained(s.table, t.Act.Index, open, s.rng)
			} else {
				vmID = s.policy.Select(s.table, t.Act.Index, open, s.rng)
			}
			if greedy {
				s.greedy++
			}
			if s.decisions {
				s.decision = telemetry.DecisionEvent{
					Episode:    s.episode,
					Time:       ctx.Now,
					Task:       t.Act.Index,
					Activation: t.Act.ID,
					VM:         vmID,
					Greedy:     greedy,
				}
				s.sink.Emit(&s.decision)
			}
		} else {
			vmID = s.policy.Select(s.table, t.Act.Index, open, s.rng)
		}
		s.budget[vmID]--
		if s.budget[vmID] == 0 {
			for i, id := range open {
				if id == vmID {
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
		}
		out = append(out, sim.Assignment{Task: t, VM: s.vmByID[vmID]})
		s.inflight[t.Act.Index] = true
		s.step++
	}
	s.openBuf = open
	s.outBuf = out
	return out
}

// OnTaskComplete implements sim.CompletionObserver: it computes the
// reward of the finished activation's schedule action from measured
// times (Eq. 4-6) and applies the TD update of Algorithm 2.
func (s *Scheduler) OnTaskComplete(t *sim.Task, env *sim.Env) {
	idx := t.Act.Index
	if s.pending[idx] {
		s.pending[idx] = false
		s.npending--
		// Keep the successor-availability counts current: each child
		// has one fewer pending parent now.
		for _, c := range t.Act.Children() {
			s.blockedBy[c.Index]--
		}
	}
	s.inflight[idx] = false
	if s.frozen {
		return
	}

	// The executing VM's aggregate stats: its ID is its index.
	mu := s.params.Mu
	pi := VMPerfIndex(env.VMStates()[t.VM.ID].Stats(), mu)
	pw := GlobalPerfIndex(env.GlobalStats(), mu)
	s.setPerf(t.VM.ID, pi)
	crisp := s.crispReward(pi, pw)
	if cw := s.params.CostWeight; cw > 0 && s.maxSlotPrice > 0 {
		costTerm := 1 - 2*slotPrice(t.VM)/s.maxSlotPrice
		crisp = (1-cw)*crisp + cw*costTerm
	}
	s.episodeR += crisp
	s.rewardT = SmoothReward(s.rewardT, crisp, s.params.Rho)

	// Discount: γ^t per Algorithm 2, or constant γ.
	gamma := s.params.Gamma
	if s.params.GammaPowerT {
		gamma = math.Pow(s.params.Gamma, float64(s.step))
	}

	k := rl.Key{Task: t.Act.Index, VM: t.VM.ID}
	if s.params.Rule == DoubleQ && s.tableB != nil {
		// Flip a coin; the chosen table picks the argmax, the other
		// evaluates it.
		selT, evalT := s.table, s.tableB
		if s.rng.Intn(2) == 1 {
			selT, evalT = s.tableB, s.table
		}
		next := s.doubleBootstrap(env, selT, evalT)
		s.queueTD(selT, k, gamma, next)
	} else {
		next := s.bootstrap(env)
		if s.checkNext != nil {
			s.checkNext(next, env)
		}
		s.queueTD(s.table, k, gamma, next)
	}
	if s.npending == 0 {
		s.FlushTD()
	}
}

// crispReward is CrispReward(pi, pw, StdDev(perfBuf)) without the
// moments when the sign is already known: for pi ≤ pw, pi ≤ pw + stdv
// holds in floating point for any stdv ≥ 0, and also for a NaN or +Inf
// stdv, so the reward is +1 whatever the deviation.
func (s *Scheduler) crispReward(pi, pw float64) float64 {
	if pi <= pw {
		return 1
	}
	return CrispReward(pi, pw, metrics.StdDev(s.perfBuf))
}

// setPerf records pi as the performance index of the VM at position
// pos. A repeat completion overwrites its own entry; a first one
// inserts it after every finished VM before pos, so perfBuf keeps
// AppendPerfIndices' values in its order and StdDev sums to the same
// float.
func (s *Scheduler) setPerf(pos int, pi float64) {
	if k := s.perfSlot[pos]; k >= 0 {
		s.perfBuf[k] = pi
		return
	}
	k := 0
	for _, j := range s.perfSlot[:pos] {
		if j >= 0 {
			k++
		}
	}
	for i, j := range s.perfSlot[pos+1:] {
		if j >= 0 {
			s.perfSlot[pos+1+i] = j + 1
		}
	}
	s.perfSlot[pos] = k
	s.perfBuf = slices.Insert(s.perfBuf, k, pi)
}

// queueTD computes k's TD update eagerly — reading Q(k) consumes the
// same single lazy-init draw an immediate TDUpdate would, so the
// table's rng stream is unchanged — and buffers the store for the
// next FlushTD.
func (s *Scheduler) queueTD(tab *rl.Table, k rl.Key, gamma, next float64) {
	oldQ := tab.Value(k)
	newQ := oldQ + s.params.Alpha*(s.rewardT+gamma*next-oldQ)
	sl := tdSlot{q: newQ, vm: int32(k.VM), tab: tdTableA}
	if tab == s.tableB {
		sl.tab = tdTableB
	}
	s.td[k.Task] = sl
	s.tdN++
	if s.checkTD != nil {
		s.checkTD(tab, rl.Entry{Key: k, Value: newQ})
	}
	if s.sink != nil {
		d := newQ - oldQ
		s.qDeltaSq += d * d
		s.updates++
	}
}

// FlushTD applies the deferred TD writes of queueTD in one pass in
// activation order. Each activation's write goes to its own row of one
// table, so this stores what the sorted per-table flush it replaced
// stored. It runs automatically when the episode's last activation
// completes and again at the next Prepare; callers that read the table
// right after an aborted episode (one cancelled or stopped at its
// horizon) can invoke it directly.
func (s *Scheduler) FlushTD() {
	if s.tdN == 0 {
		return
	}
	for i := range s.td {
		sl := &s.td[i]
		switch sl.tab {
		case tdTableA:
			s.table.Set(rl.Key{Task: i, VM: int(sl.vm)}, sl.q)
		case tdTableB:
			s.tableB.Set(rl.Key{Task: i, VM: int(sl.vm)}, sl.q)
		}
		sl.tab = tdNone
	}
	s.tdN = 0
}

// doubleBootstrap picks the best next action with selT and returns
// its value under evalT (Double Q-learning's cross-evaluation).
func (s *Scheduler) doubleBootstrap(env *sim.Env, selT, evalT *rl.Table) float64 {
	ready, idle := s.nextActions(env)
	if len(ready) == 0 || len(idle) == 0 {
		return 0
	}
	bestKey, _ := selT.ArgmaxRect(ready, idle)
	return evalT.Value(bestKey)
}

// bootstrap estimates the value of the successor state s': the best
// (or policy-sampled, for SARSA) Q value over the schedule actions
// *available in s'* — activations whose dependencies have all
// finished, paired with currently idle VMs. Terminal states (and
// states with no available action, the paper's "unavailable")
// bootstrap to 0.
//
// Q-learning under AllPending is answered incrementally: the first
// bootstrap of an episode scans (materialising lazy entries and
// rescanning stale rows in the same task-major order as ever) and
// snapshots the row maxima it leaves cached; later ones read the top
// of pmax. That holds only while the fleet's VMs are exactly the
// table's columns, the ones the row caches cover, so a table and a
// fleet of different widths scan every time.
func (s *Scheduler) bootstrap(env *sim.Env) float64 {
	_, nv := s.table.Dims()
	incremental := s.params.Rule != SARSA && s.params.Scope != AvailableOnly && len(env.VMStates()) == nv
	if !incremental {
		s.pmax.built = false
	} else if s.pmax.built && s.npending > 0 {
		return s.pmax.top(s.pending)
	}
	ready, idle := s.nextActions(env)
	if len(ready) == 0 || len(idle) == 0 {
		return 0 // the "unavailable" state: only do-nothing is possible
	}
	switch s.params.Rule {
	case SARSA:
		// Take the lowest-index available activation and apply the
		// behaviour policy to pick its VM (on-policy bootstrap).
		vm := s.policy.Select(s.table, ready[0], idle, s.rng)
		return s.table.Value(rl.Key{Task: ready[0], VM: vm})
	default: // QLearning
		next := s.table.MaxRect(ready, idle)
		if incremental {
			s.pmax.build(s.table, s.pending)
		}
		return next
	}
}

// nextActions enumerates the candidate schedule actions of the
// successor state under the configured Scope, in index order (Value
// materialises random initial entries, so the access order must be
// deterministic). The returned slices alias scratch buffers reused by
// the next call.
func (s *Scheduler) nextActions(env *sim.Env) (ready, idle []int) {
	if s.npending == 0 {
		return nil, nil
	}
	ready, idle = s.readyBuf[:0], s.idleBuf[:0]
	switch s.params.Scope {
	case AvailableOnly:
		for i, p := range s.pending {
			// Available: pending, not already assigned, and every parent
			// finished (the incrementally maintained count).
			if p && !s.inflight[i] && s.blockedBy[i] == 0 {
				ready = append(ready, i)
			}
		}
		idle = env.AppendIdleVMIDs(idle)
	default: // AllPending
		for i, p := range s.pending {
			if p {
				ready = append(ready, i)
			}
		}
		idle = env.AppendVMIDs(idle)
	}
	s.readyBuf, s.idleBuf = ready, idle
	return ready, idle
}

// EpisodeReward returns the accumulated crisp reward of the episode
// so far (diagnostic).
func (s *Scheduler) EpisodeReward() float64 { return s.episodeR }

// slotPrice is a VM's hourly price per execution slot — the unit the
// cost-aware reward compares.
func slotPrice(vm *cloud.VM) float64 {
	return vm.Type.PricePerHour / float64(vm.Type.VCPUs)
}

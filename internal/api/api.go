// Package api is the canonical wire schema of the scheduler service:
// the request/response and fleet/workflow specification types that
// every client-facing surface shares. The schedd daemon's HTTP/JSON
// payloads, the schedload generator's requests and the reassign CLI's
// plan files all round-trip through these types, so a plan written by
// one tool is byte-compatible input for the others.
//
// The schema is versioned: every document carries a SchemaVersion
// ("v1"). Adding optional fields is a compatible change within a
// version; renaming or retyping a field requires a new version.
package api

import (
	"fmt"
	"math/rand"
	"strings"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/dax"
	"reassign/internal/provenance"
	"reassign/internal/randsrc"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

// SchemaVersion is the current wire-schema version. Documents with an
// empty schema_version are treated as this version.
const SchemaVersion = "v1"

// CheckSchemaVersion accepts the empty string (assume current) and
// the current version, and rejects everything else with a typed
// *Error so HTTP handlers map it to 400.
func CheckSchemaVersion(v string) error {
	if v == "" || v == SchemaVersion {
		return nil
	}
	return &Error{
		Code:   CodeBadRequest,
		Field:  "schema_version",
		Reason: fmt.Sprintf("unsupported schema version %q (want %q)", v, SchemaVersion),
	}
}

// WorkflowSpec describes the workflow to schedule. Exactly one of the
// three forms is used: an inline DAX XML document (Format "dax"), an
// inline WfCommons/WfFormat JSON document (Format "wfjson"), or a
// synthetic generated workflow (Format "synthetic" with Synthetic
// set).
type WorkflowSpec struct {
	// Format is "dax", "wfjson" or "synthetic". Empty defaults to
	// "synthetic" when Synthetic is set, else it is an error.
	Format string `json:"format,omitempty"`
	// Source is the inline workflow document for dax/wfjson.
	Source string `json:"source,omitempty"`
	// Synthetic describes a generated workflow.
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
}

// SyntheticSpec requests one of the built-in Pegasus-shaped workflow
// generators (package trace).
type SyntheticSpec struct {
	// Family is "montage" (default), "cybershake", "epigenomics",
	// "inspiral" or "sipht".
	Family string `json:"family,omitempty"`
	// Nodes is the approximate activation count (default 50).
	Nodes int `json:"nodes,omitempty"`
	// Seed drives the generator's runtime randomness. Two specs with
	// equal family, nodes and seed build identical workflows.
	Seed int64 `json:"seed,omitempty"`
}

// Size bounds on what a spec may ask to be generated. Each is at least
// ten times the largest legitimate request in the repository (the
// 10000-activation, 1024-vCPU large-DAG learning tier) and is checked
// before anything is built, so a few bytes of JSON cannot make a
// server generate a billion-node workflow or fleet.
const (
	// MaxSyntheticNodes bounds SyntheticSpec.Nodes, and the
	// activations of an inline dax or wfjson document.
	MaxSyntheticNodes = 100_000
	// MaxFleetVCPUs bounds a fleet's total vCPUs: FleetSpec.VCPUs for a
	// preset, the sum of count × type vCPUs for a custom fleet.
	MaxFleetVCPUs = 16_384
)

// Learning-budget bounds on a submission, sized by the same rule: each
// replica is a concurrent learner with its own Q table (the largest
// replica count in the repository is 8), and every replica runs the
// full episode budget (the longest is a 100,000-episode job).
const (
	// MaxLearnReplicas bounds LearnSpec.Replicas.
	MaxLearnReplicas = 128
	// MaxLearnEpisodes bounds a submission's total episodes:
	// LearnSpec.Episodes times the replica count.
	MaxLearnEpisodes = 1_000_000
)

// MaxMarketHorizon bounds MarketSpec.Horizon in virtual seconds: a
// trace's preemption draws grow with its horizon, and the longest in
// the repository is the 3600 s default, so one day is over ten times
// that.
const MaxMarketHorizon = 86_400

// Build parses or generates the workflow. Errors are typed *Error
// with Field "workflow" so handlers map them to 400, or 413
// (CodeTooLarge) for a synthetic spec or an inline document over
// MaxSyntheticNodes.
func (s WorkflowSpec) Build() (*dag.Workflow, error) {
	format := s.Format
	if format == "" && s.Synthetic != nil {
		format = "synthetic"
	}
	fail := func(reason string) (*dag.Workflow, error) {
		return nil, &Error{Code: CodeBadRequest, Field: "workflow", Reason: reason}
	}
	switch format {
	case "dax", "wfjson":
		if strings.TrimSpace(s.Source) == "" {
			return fail(format + " workflow needs a non-empty source document")
		}
		read := dax.Read
		if format == "wfjson" {
			read = wfjson.Read
		}
		w, err := read(strings.NewReader(s.Source))
		if err != nil {
			return fail(err.Error())
		}
		if w.Len() > MaxSyntheticNodes {
			return nil, &Error{Code: CodeTooLarge, Field: "workflow.source",
				Reason: fmt.Sprintf("%d activations exceeds the bound of %d", w.Len(), MaxSyntheticNodes)}
		}
		return w, nil
	case "synthetic":
		spec := s.Synthetic
		if spec == nil {
			spec = &SyntheticSpec{}
		}
		nodes := spec.Nodes
		if nodes <= 0 {
			nodes = 50
		}
		if nodes > MaxSyntheticNodes {
			return nil, &Error{Code: CodeTooLarge, Field: "workflow.synthetic.nodes",
				Reason: fmt.Sprintf("%d nodes exceeds the bound of %d", nodes, MaxSyntheticNodes)}
		}
		family := strings.ToLower(spec.Family)
		if family == "" {
			family = "montage"
		}
		gen := trace.Named(family)
		if gen == nil {
			return fail(fmt.Sprintf("unknown synthetic family %q", spec.Family))
		}
		return gen(rand.New(randsrc.New(spec.Seed)), nodes), nil
	case "":
		return fail("workflow spec needs a format (dax, wfjson or synthetic)")
	default:
		return fail(fmt.Sprintf("unknown workflow format %q", format))
	}
}

// VMCount provisions Count VMs of the named catalogue type.
type VMCount struct {
	Type  string `json:"type"`
	Count int    `json:"count"`
}

// FleetSpec describes the VM fleet to schedule onto: either a named
// preset ("table1", the paper's Table I, or "scaled", its replicated
// large-fleet extension) sized by total vCPUs, or an explicit list of
// catalogue types and counts.
type FleetSpec struct {
	// Preset is "table1" (default) or "scaled"; ignored when Types is
	// set.
	Preset string `json:"preset,omitempty"`
	// VCPUs sizes the preset (default 16). table1 accepts 16/32/64,
	// scaled any positive multiple of 16.
	VCPUs int `json:"vcpus,omitempty"`
	// Types builds a custom fleet instead of a preset.
	Types []VMCount `json:"types,omitempty"`
}

// Build provisions the fleet. Errors are typed *Error with Field
// "fleet" so handlers map them to 400, or 413 (CodeTooLarge) for a
// fleet over MaxFleetVCPUs.
func (s FleetSpec) Build() (*cloud.Fleet, error) {
	fail := func(reason string) (*cloud.Fleet, error) {
		return nil, &Error{Code: CodeBadRequest, Field: "fleet", Reason: reason}
	}
	tooLarge := func(field string) (*cloud.Fleet, error) {
		return nil, &Error{Code: CodeTooLarge, Field: field,
			Reason: fmt.Sprintf("fleet exceeds the bound of %d vCPUs", MaxFleetVCPUs)}
	}
	if len(s.Types) > 0 {
		types := make([]cloud.VMType, len(s.Types))
		counts := make([]int, len(s.Types))
		vcpus := 0
		for i, tc := range s.Types {
			t, ok := cloud.TypeByName(tc.Type)
			if !ok {
				return fail(fmt.Sprintf("unknown VM type %q", tc.Type))
			}
			// Clamping the count keeps the running sum from overflowing.
			if vcpus += min(max(tc.Count, 0), MaxFleetVCPUs+1) * t.VCPUs; vcpus > MaxFleetVCPUs {
				return tooLarge("fleet.types")
			}
			types[i] = t
			counts[i] = tc.Count
		}
		fleet, err := cloud.NewFleet("custom", types, counts)
		if err != nil {
			return fail(err.Error())
		}
		return fleet, nil
	}
	vcpus := s.VCPUs
	if vcpus == 0 {
		vcpus = 16
	}
	if vcpus > MaxFleetVCPUs {
		return tooLarge("fleet.vcpus")
	}
	var fleet *cloud.Fleet
	var err error
	switch strings.ToLower(s.Preset) {
	case "", "table1":
		fleet, err = cloud.FleetTable1(vcpus)
	case "scaled":
		fleet, err = cloud.FleetScaled(vcpus)
	default:
		return fail(fmt.Sprintf("unknown fleet preset %q", s.Preset))
	}
	if err != nil {
		return fail(err.Error())
	}
	return fleet, nil
}

// LearnSpec carries the learning parameters of a submission. Zero
// values mean the paper defaults (α=0.5, γ=1.0, ε=0.1, 100 episodes,
// 1 replica).
type LearnSpec struct {
	Episodes int     `json:"episodes,omitempty"`
	Replicas int     `json:"replicas,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	Gamma    float64 `json:"gamma,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
}

// MarketSpec asks the daemon to execute the job's plan over a
// generated spot-market trace: spot prices, preemption notices and
// kills, and node-health degradations follow the named regime
// deterministically from the seed. Requires Execute; the job's
// status gains the run's traced bill and preemption count, and the
// daemon's /metrics gains per-provider market series.
type MarketSpec struct {
	// Regime names the market weather: "stable", "volatile" or
	// "hostile".
	Regime string `json:"regime"`
	// Seed drives trace generation (default: the submission Seed
	// offset by a fixed constant, so learning and market draws stay
	// independent).
	Seed int64 `json:"seed,omitempty"`
	// Horizon bounds the trace in virtual seconds (default 3600).
	Horizon float64 `json:"horizon,omitempty"`
	// ReactiveOnly disables the notice-reactive cordon/drain policy:
	// the master reacts to kills only (the baseline in the frontier
	// study).
	ReactiveOnly bool `json:"reactive_only,omitempty"`
}

// SubmitRequest is the POST /v1/jobs payload: schedule Workflow onto
// Fleet, either by learning a plan (the default) or by validating and
// replaying a submitted Plan.
type SubmitRequest struct {
	SchemaVersion string       `json:"schema_version"`
	Workflow      WorkflowSpec `json:"workflow"`
	Fleet         FleetSpec    `json:"fleet"`
	Learn         LearnSpec    `json:"learn"`
	// Tenant labels the submitting tenant for multi-tenant accounting:
	// the daemon tracks per-tenant queued/running gauges, completion
	// counters and latency percentiles under this label in /metrics.
	// Empty submissions are accounted under "default". The label does
	// not affect scheduling or admission — lanes are fairness
	// *measurement*, not enforcement (enforcement is future work).
	Tenant string `json:"tenant,omitempty"`
	// DeadlineSeconds is an optional SLA hint: the submitter wants the
	// job finished within this many wall-clock seconds of submission.
	// The daemon records a per-tenant deadline hit or miss when the job
	// reaches a terminal state; it never rejects or reorders on it.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Seed drives Q initialisation, exploration and fluctuation draws.
	// Two submissions differing only in unrelated daemon state return
	// bit-identical plans for equal seeds (given NoWarmStart).
	Seed int64 `json:"seed,omitempty"`
	// Fluctuation enables the cloud fluctuation model in the learning
	// simulator.
	Fluctuation bool `json:"fluctuation,omitempty"`
	// NoWarmStart bypasses the daemon's Q-table cache: learning starts
	// from random initialisation even when a table for this workflow
	// structure is cached. Use it for reproducibility studies.
	NoWarmStart bool `json:"no_warm_start,omitempty"`
	// Execute runs the extracted plan on the virtual-time execution
	// master after learning and attaches provenance to the job.
	Execute bool `json:"execute,omitempty"`
	// Market replays a generated spot-market trace during execution
	// (requires Execute).
	Market *MarketSpec `json:"market,omitempty"`
	// Plan, when set, skips learning: the plan is validated against
	// the workflow and fleet (400 on mismatch) and replayed for its
	// simulated makespan.
	Plan *PlanDocument `json:"plan,omitempty"`
}

// Job states reported by JobStatus.State.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the daemon's job representation: returned by submit
// (202), status (200) and cancel.
type JobStatus struct {
	SchemaVersion string `json:"schema_version"`
	ID            string `json:"id"`
	State         string `json:"state"`

	Workflow    string `json:"workflow,omitempty"`
	Activations int    `json:"activations,omitempty"`
	Fleet       string `json:"fleet,omitempty"`
	VMs         int    `json:"vms,omitempty"`

	// Tenant echoes the submission's tenant label ("" when none was
	// given); DeadlineSeconds its SLA hint. DeadlineMissed is set on
	// finished jobs that carried a deadline and overran it.
	Tenant          string  `json:"tenant,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	DeadlineMissed  bool    `json:"deadline_missed,omitempty"`

	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// LatencySeconds is submit→finish, set on finished jobs.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`

	// Episodes is the number of learning episodes run; CacheHit
	// reports whether learning warm-started from the daemon's Q-table
	// cache.
	Episodes        int     `json:"episodes,omitempty"`
	CacheHit        bool    `json:"cache_hit,omitempty"`
	LearningSeconds float64 `json:"learning_seconds,omitempty"`

	// Plan is the extracted (or replayed) plan with its simulated
	// makespan; byte-compatible with reassign -planin/-planout files.
	Plan *PlanDocument `json:"plan,omitempty"`

	// Provenance holds per-activation execution records when the job
	// was submitted with Execute; ExecMakespanSeconds its makespan.
	Provenance          []provenance.Execution `json:"provenance,omitempty"`
	ExecMakespanSeconds float64                `json:"exec_makespan_seconds,omitempty"`

	// Market execution results (submissions with Market only):
	// MarketCostUSD is the run's bill against the traced prices and
	// Preemptions the traced kills executed on live VMs.
	MarketCostUSD float64 `json:"market_cost_usd,omitempty"`
	Preemptions   int     `json:"preemptions,omitempty"`

	Error *Error `json:"error,omitempty"`
}

// PlanDocument is the versioned on-the-wire (and on-disk) form of a
// scheduling plan: the document written by `reassign -plan x.json`,
// accepted by `reassign -planin` and POST /v1/jobs, and returned in
// JobStatus. It decodes in its reader's own pass (no custom
// UnmarshalJSON); the reader checks SchemaVersion with
// CheckSchemaVersion.
type PlanDocument struct {
	SchemaVersion string `json:"schema_version"`
	// Workflow and Fleet name the inputs the plan was computed for
	// (informational; validation is structural).
	Workflow string `json:"workflow,omitempty"`
	Fleet    string `json:"fleet,omitempty"`
	// MakespanSeconds is the plan's simulated makespan.
	MakespanSeconds float64 `json:"makespan_seconds,omitempty"`
	// Plan is the activation→VM assignment.
	Plan core.Plan `json:"plan"`
}

// NewPlanDocument wraps a plan in the current schema version.
func NewPlanDocument(workflow, fleet string, makespan float64, plan core.Plan) *PlanDocument {
	return &PlanDocument{
		SchemaVersion:   SchemaVersion,
		Workflow:        workflow,
		Fleet:           fleet,
		MakespanSeconds: makespan,
		Plan:            plan,
	}
}

package api

import (
	"reassign/internal/api/jsonread"
	"reassign/internal/provenance"
)

// The service's documents decode through jsonread in one pass, with
// no reflection: a request in the daemon's submit handler, a status in
// every client. Each reader below matches keys against its type's JSON
// field names, listed here in declaration order.
var (
	submitFields    = []string{"schema_version", "workflow", "fleet", "learn", "tenant", "deadline_seconds", "seed", "fluctuation", "no_warm_start", "execute", "market", "plan"}
	workflowFields  = []string{"format", "source", "synthetic"}
	syntheticFields = []string{"family", "nodes", "seed"}
	fleetFields     = []string{"preset", "vcpus", "types"}
	vmCountFields   = []string{"type", "count"}
	learnFields     = []string{"episodes", "replicas", "alpha", "gamma", "epsilon"}
	marketFields    = []string{"regime", "seed", "horizon", "reactive_only"}
	planDocFields   = []string{"schema_version", "workflow", "fleet", "makespan_seconds", "plan"}
	statusFields    = []string{"schema_version", "id", "state", "workflow", "activations", "fleet", "vms", "tenant", "deadline_seconds", "deadline_missed", "submitted_at", "started_at", "finished_at", "latency_seconds", "episodes", "cache_hit", "learning_seconds", "plan", "provenance", "exec_makespan_seconds", "market_cost_usd", "preemptions", "error"}
	executionFields = []string{"workflow", "run_id", "task_id", "activity", "vm_id", "vm_type", "ready_at", "start_at", "finish_at", "attempts", "success", "wall"}
	errorFields     = []string{"code", "field", "reason"}
)

// DecodeSubmit decodes a POST /v1/jobs body into req as json.Unmarshal
// would, in one pass, except for workflow.source: it leaves
// req.Workflow.Source as it was and returns the last source string as
// it stands in data, between its quotes and still escaped, or nil when
// data has none. jsonread.Unquote decodes it. The daemon keys its
// workflow intern on these bytes, so a document it has seen is never
// unescaped again.
func DecodeSubmit(data []byte, req *SubmitRequest) (source []byte, err error) {
	r := jsonread.NewReader(data)
	if err := readSubmit(r, req, &source); err != nil {
		return nil, err
	}
	return source, r.End()
}

// UnmarshalJSON decodes the request through DecodeSubmit.
func (req *SubmitRequest) UnmarshalJSON(data []byte) error {
	source, err := DecodeSubmit(data, req)
	if err != nil {
		return err
	}
	if source != nil {
		req.Workflow.Source = jsonread.Unquote(source)
	}
	return nil
}

// UnmarshalJSON decodes a status in one pass, as json.Unmarshal would
// into the same type without this method.
func (s *JobStatus) UnmarshalJSON(data []byte) error {
	r := jsonread.NewReader(data)
	if err := readStatus(r, s); err != nil {
		return err
	}
	return r.End()
}

func readSubmit(r *jsonread.Reader, req *SubmitRequest, source *[]byte) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, submitFields)) {
		case "schema_version":
			return r.String(&req.SchemaVersion)
		case "workflow":
			return readWorkflow(r, &req.Workflow, source)
		case "fleet":
			return readFleet(r, &req.Fleet)
		case "learn":
			return readLearn(r, &req.Learn)
		case "tenant":
			return r.String(&req.Tenant)
		case "deadline_seconds":
			return r.Float64(&req.DeadlineSeconds)
		case "seed":
			return r.Int64(&req.Seed)
		case "fluctuation":
			return r.Bool(&req.Fluctuation)
		case "no_warm_start":
			return r.Bool(&req.NoWarmStart)
		case "execute":
			return r.Bool(&req.Execute)
		case "market":
			return jsonread.Ptr(r, &req.Market, readMarket)
		case "plan":
			return jsonread.Ptr(r, &req.Plan, readPlanDocument)
		}
		return r.Skip()
	})
}

func readWorkflow(r *jsonread.Reader, w *WorkflowSpec, source *[]byte) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, workflowFields)) {
		case "format":
			return r.String(&w.Format)
		case "source":
			raw, ok, err := r.Raw()
			if ok {
				*source = raw
			}
			return err
		case "synthetic":
			return jsonread.Ptr(r, &w.Synthetic, readSynthetic)
		}
		return r.Skip()
	})
}

func readSynthetic(r *jsonread.Reader, s *SyntheticSpec) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, syntheticFields)) {
		case "family":
			return r.String(&s.Family)
		case "nodes":
			return r.Int(&s.Nodes)
		case "seed":
			return r.Int64(&s.Seed)
		}
		return r.Skip()
	})
}

func readFleet(r *jsonread.Reader, f *FleetSpec) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, fleetFields)) {
		case "preset":
			return r.String(&f.Preset)
		case "vcpus":
			return r.Int(&f.VCPUs)
		case "types":
			return jsonread.Slice(r, &f.Types, readVMCount)
		}
		return r.Skip()
	})
}

func readVMCount(r *jsonread.Reader, c *VMCount) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, vmCountFields)) {
		case "type":
			return r.String(&c.Type)
		case "count":
			return r.Int(&c.Count)
		}
		return r.Skip()
	})
}

func readLearn(r *jsonread.Reader, l *LearnSpec) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, learnFields)) {
		case "episodes":
			return r.Int(&l.Episodes)
		case "replicas":
			return r.Int(&l.Replicas)
		case "alpha":
			return r.Float64(&l.Alpha)
		case "gamma":
			return r.Float64(&l.Gamma)
		case "epsilon":
			return r.Float64(&l.Epsilon)
		}
		return r.Skip()
	})
}

func readMarket(r *jsonread.Reader, m *MarketSpec) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, marketFields)) {
		case "regime":
			return r.String(&m.Regime)
		case "seed":
			return r.Int64(&m.Seed)
		case "horizon":
			return r.Float64(&m.Horizon)
		case "reactive_only":
			return r.Bool(&m.ReactiveOnly)
		}
		return r.Skip()
	})
}

func readPlanDocument(r *jsonread.Reader, d *PlanDocument) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, planDocFields)) {
		case "schema_version":
			return r.String(&d.SchemaVersion)
		case "workflow":
			return r.String(&d.Workflow)
		case "fleet":
			return r.String(&d.Fleet)
		case "makespan_seconds":
			return r.Float64(&d.MakespanSeconds)
		case "plan":
			return d.Plan.ReadJSON(r)
		}
		return r.Skip()
	})
}

func readStatus(r *jsonread.Reader, s *JobStatus) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, statusFields)) {
		case "schema_version":
			return r.String(&s.SchemaVersion)
		case "id":
			return r.String(&s.ID)
		case "state":
			return r.String(&s.State)
		case "workflow":
			return r.String(&s.Workflow)
		case "activations":
			return r.Int(&s.Activations)
		case "fleet":
			return r.String(&s.Fleet)
		case "vms":
			return r.Int(&s.VMs)
		case "tenant":
			return r.String(&s.Tenant)
		case "deadline_seconds":
			return r.Float64(&s.DeadlineSeconds)
		case "deadline_missed":
			return r.Bool(&s.DeadlineMissed)
		case "submitted_at":
			return r.String(&s.SubmittedAt)
		case "started_at":
			return r.String(&s.StartedAt)
		case "finished_at":
			return r.String(&s.FinishedAt)
		case "latency_seconds":
			return r.Float64(&s.LatencySeconds)
		case "episodes":
			return r.Int(&s.Episodes)
		case "cache_hit":
			return r.Bool(&s.CacheHit)
		case "learning_seconds":
			return r.Float64(&s.LearningSeconds)
		case "plan":
			return jsonread.Ptr(r, &s.Plan, readPlanDocument)
		case "provenance":
			return jsonread.Slice(r, &s.Provenance, readExecution)
		case "exec_makespan_seconds":
			return r.Float64(&s.ExecMakespanSeconds)
		case "market_cost_usd":
			return r.Float64(&s.MarketCostUSD)
		case "preemptions":
			return r.Int(&s.Preemptions)
		case "error":
			return jsonread.Ptr(r, &s.Error, readError)
		}
		return r.Skip()
	})
}

func readExecution(r *jsonread.Reader, e *provenance.Execution) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, executionFields)) {
		case "workflow":
			return r.String(&e.WorkflowName)
		case "run_id":
			return r.String(&e.RunID)
		case "task_id":
			return r.String(&e.TaskID)
		case "activity":
			return r.String(&e.Activity)
		case "vm_id":
			return r.Int(&e.VMID)
		case "vm_type":
			return r.String(&e.VMType)
		case "ready_at":
			return r.Float64(&e.ReadyAt)
		case "start_at":
			return r.Float64(&e.StartAt)
		case "finish_at":
			return r.Float64(&e.FinishAt)
		case "attempts":
			return r.Int(&e.Attempts)
		case "success":
			return r.Bool(&e.Success)
		case "wall":
			return r.Text(&e.Wall)
		}
		return r.Skip()
	})
}

func readError(r *jsonread.Reader, e *Error) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, errorFields)) {
		case "code":
			return r.String(&e.Code)
		case "field":
			return r.String(&e.Field)
		case "reason":
			return r.String(&e.Reason)
		}
		return r.Skip()
	})
}

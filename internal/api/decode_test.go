package api_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"reassign/internal/api"
	"reassign/internal/core"
	"reassign/internal/provenance"
)

// The differential references: the decoded types without their
// UnmarshalJSON, which json.Unmarshal fills by reflection. refPlan
// keeps core.Plan's former decode, a nested json.Unmarshal of the entry
// array, so the plan is checked against what it replaced.
type (
	plainSubmit struct {
		SchemaVersion   string           `json:"schema_version"`
		Workflow        api.WorkflowSpec `json:"workflow"`
		Fleet           api.FleetSpec    `json:"fleet"`
		Learn           api.LearnSpec    `json:"learn"`
		Tenant          string           `json:"tenant,omitempty"`
		DeadlineSeconds float64          `json:"deadline_seconds,omitempty"`
		Seed            int64            `json:"seed,omitempty"`
		Fluctuation     bool             `json:"fluctuation,omitempty"`
		NoWarmStart     bool             `json:"no_warm_start,omitempty"`
		Execute         bool             `json:"execute,omitempty"`
		Market          *api.MarketSpec  `json:"market,omitempty"`
		Plan            *plainPlanDoc    `json:"plan,omitempty"`
	}
	plainPlanDoc struct {
		SchemaVersion   string  `json:"schema_version"`
		Workflow        string  `json:"workflow,omitempty"`
		Fleet           string  `json:"fleet,omitempty"`
		MakespanSeconds float64 `json:"makespan_seconds,omitempty"`
		Plan            refPlan `json:"plan"`
	}
	plainStatus struct {
		SchemaVersion       string                 `json:"schema_version"`
		ID                  string                 `json:"id"`
		State               string                 `json:"state"`
		Workflow            string                 `json:"workflow,omitempty"`
		Activations         int                    `json:"activations,omitempty"`
		Fleet               string                 `json:"fleet,omitempty"`
		VMs                 int                    `json:"vms,omitempty"`
		Tenant              string                 `json:"tenant,omitempty"`
		DeadlineSeconds     float64                `json:"deadline_seconds,omitempty"`
		DeadlineMissed      bool                   `json:"deadline_missed,omitempty"`
		SubmittedAt         string                 `json:"submitted_at,omitempty"`
		StartedAt           string                 `json:"started_at,omitempty"`
		FinishedAt          string                 `json:"finished_at,omitempty"`
		LatencySeconds      float64                `json:"latency_seconds,omitempty"`
		Episodes            int                    `json:"episodes,omitempty"`
		CacheHit            bool                   `json:"cache_hit,omitempty"`
		LearningSeconds     float64                `json:"learning_seconds,omitempty"`
		Plan                *plainPlanDoc          `json:"plan,omitempty"`
		Provenance          []provenance.Execution `json:"provenance,omitempty"`
		ExecMakespanSeconds float64                `json:"exec_makespan_seconds,omitempty"`
		MarketCostUSD       float64                `json:"market_cost_usd,omitempty"`
		Preemptions         int                    `json:"preemptions,omitempty"`
		Error               *api.Error             `json:"error,omitempty"`
	}
	refPlan core.Plan
)

func (p *refPlan) UnmarshalJSON(data []byte) error {
	var entries []core.PlanEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	plan, err := core.NewPlanFromEntries(entries)
	if err != nil {
		return err
	}
	*p = refPlan(plan)
	return nil
}

// convert deep-copies src into dst, a value of the corresponding type
// on the other side: the same fields in the same order, core.Plan and
// refPlan converting into each other. Nothing is shared, so decoding
// into one side leaves the other as it was.
func convert(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Pointer:
		if !src.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
			convert(dst.Elem(), src.Elem())
		}
	case reflect.Slice:
		if !src.IsNil() {
			// Past len too: encoding/json decodes into what lies there.
			dst.Set(reflect.MakeSlice(dst.Type(), src.Len(), src.Cap()))
			all, dstAll := src.Slice(0, src.Cap()), dst.Slice(0, src.Cap())
			for i := 0; i < src.Cap(); i++ {
				convert(dstAll.Index(i), all.Index(i))
			}
		}
	case reflect.Struct:
		if src.Type() == reflect.TypeOf(core.Plan{}) || src.Type() == reflect.TypeOf(refPlan{}) {
			dst.Set(src.Convert(dst.Type())) // a plan's entries are replaced, never written in place
			return
		}
		if src.NumField() != dst.NumField() {
			panic(fmt.Sprintf("%v has %d fields, %v %d", src.Type(), src.NumField(), dst.Type(), dst.NumField()))
		}
		for i := 0; i < src.NumField(); i++ {
			if src.Type().Field(i).Name != dst.Type().Field(i).Name {
				panic(fmt.Sprintf("%v and %v differ at field %d", src.Type(), dst.Type(), i))
			}
			convert(dst.Field(i), src.Field(i))
		}
	default:
		dst.Set(src.Convert(dst.Type()))
	}
}

func converted[T any](src any) T {
	var dst T
	convert(reflect.ValueOf(&dst).Elem(), reflect.ValueOf(src))
	return dst
}

// checkDecode decodes data with decode into a copy of each starting
// value and with json.Unmarshal into the plain copy of the same value,
// and fails unless both accept or both reject, and agree on what they
// accept.
func checkDecode[T, P any](t *testing.T, data []byte, starts []T, decode func([]byte, *T) error) {
	t.Helper()
	for i, start := range starts {
		got := converted[T](start)
		gotErr := decode(data, &got)
		ref := converted[P](start)
		refErr := json.Unmarshal(data, &ref)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("start %d: %q: reader error %v, encoding/json error %v", i, data, gotErr, refErr)
		}
		if want := converted[T](ref); gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("start %d: %q:\nreader        %+v\nencoding/json %+v", i, data, got, want)
		}
	}
}

func decodeSubmit(data []byte, req *api.SubmitRequest) error { return req.UnmarshalJSON(data) }
func decodeStatus(data []byte, st *api.JobStatus) error      { return st.UnmarshalJSON(data) }

// submitStarts are the values FuzzDecodeSubmit decodes into: the zero
// request, which the daemon decodes into, and one with every field set,
// into which a document must merge as encoding/json merges, its slice
// holding one element and a second past its length.
func submitStarts(t testing.TB) []api.SubmitRequest {
	plan, err := core.NewPlanFromEntries([]core.PlanEntry{{Activation: "a", VM: 1}, {Activation: "b", VM: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return []api.SubmitRequest{{}, {
		SchemaVersion: "v1",
		Workflow: api.WorkflowSpec{Format: "wfjson", Source: "{}",
			Synthetic: &api.SyntheticSpec{Family: "sipht", Nodes: 7, Seed: 3}},
		Fleet:           api.FleetSpec{Preset: "scaled", VCPUs: 48, Types: []api.VMCount{{Type: "t2.micro", Count: 2}, {Type: "t2.small", Count: 1}}[:1]},
		Learn:           api.LearnSpec{Episodes: 3, Replicas: 2, Alpha: 0.25, Gamma: 0.5, Epsilon: 0.75},
		Tenant:          "t",
		DeadlineSeconds: 9,
		Seed:            11,
		Fluctuation:     true,
		NoWarmStart:     true,
		Execute:         true,
		Market:          &api.MarketSpec{Regime: "stable", Seed: 5, Horizon: 60, ReactiveOnly: true},
		Plan:            api.NewPlanDocument("w", "f", 12.5, plan),
	}}
}

func statusStarts(t testing.TB) []api.JobStatus {
	plan, err := core.NewPlanFromEntries([]core.PlanEntry{{Activation: "a", VM: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return []api.JobStatus{{}, {
		SchemaVersion: "v1", ID: "j1", State: "running", Workflow: "w", Activations: 2, Fleet: "f", VMs: 3,
		Tenant: "t", DeadlineSeconds: 4, DeadlineMissed: true,
		SubmittedAt: "s", StartedAt: "b", FinishedAt: "e", LatencySeconds: 5,
		Episodes: 6, CacheHit: true, LearningSeconds: 7,
		Plan: api.NewPlanDocument("w", "f", 8, plan),
		Provenance: []provenance.Execution{
			{WorkflowName: "w", RunID: "r", TaskID: "a", Activity: "x", VMID: 1, VMType: "t2.micro",
				ReadyAt: 1, StartAt: 2, FinishAt: 3, Attempts: 1, Success: true, Wall: 1_700_000_000},
			{WorkflowName: "w", TaskID: "b", Wall: 1_700_000_001},
			{RunID: "past len", VMID: 7},
		}[:2],
		ExecMakespanSeconds: 9, MarketCostUSD: 10, Preemptions: 11,
		Error: &api.Error{Code: "internal", Field: "f", Reason: "r"},
	}}
}

// edgeCases are bodies, each of both documents, at an edge where a
// hand-written decoder can part from encoding/json: unknown fields,
// duplicate keys and repeated objects, case-folded keys, null, number
// forms, string escapes and invalid UTF-8, nesting depth and trailing
// bytes.
var edgeCases = []string{
	``, ` `, `null`, ` null `, `{}`, `[]`, `"x"`, `1`, `true`, `{`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a":1 "b":2}`,
	`{"unknown":{"deep":[1,2,{"x":null}],"s":"\u00e9"},"other":[true,false,null,-0.5e-3]}`,
	`{"unknown":[1,]}`, `{"unknown":tru}`, `{"unknown":"\x"}`, `{"unknown":"\u12"}`, `{"unknown":01}`, `{"unknown":-}`, `{"unknown":1.}`, `{"unknown":1e}`,
	`{"schema_version":"v0","schema_version":"v1"}`, `{"SCHEMA_VERSION":"v2"}`, `{"Schema_Version":"v2","schema_version":"v3"}`,
	`{"ſeed":4}`, `{"\u017feed":4}`, `{"s\u0065ed":4}`, `{"seed":4,"SEED":5}`,
	`{"seed":null}`, `{"seed":1e3}`, `{"seed":1.5}`, `{"seed":-0}`, `{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`, `{"seed":-9223372036854775809}`, `{"seed":"4"}`,
	`{"deadline_seconds":1e400}`, `{"deadline_seconds":-1e400}`, `{"deadline_seconds":1e-400}`, `{"deadline_seconds":1E2}`, `{"deadline_seconds":true}`,
	`{"execute":true,"execute":false}`, `{"execute":null}`, `{"execute":1}`, `{"tenant":7}`, `{"tenant":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"tenant":"\ud83d\ude00"}`, `{"tenant":"\ud800"}`, `{"tenant":"\udc00\ud800x"}`, `{"tenant":"\ud800\u0041"}`, "{\"tenant\":\"\xff\xfe\"}", "{\"tenant\":\"\xe2\x82\"}", "{\"tenant\":\"a\x01\"}",
	"{\"tenant\":\"\xed\xa0\x80\"}", "{\"\xffseed\":1}",
	`{"workflow":{"format":"wfjson","source":"a"},"workflow":{"format":"dax"}}`, `{"workflow":{"source":"a","source":"b"}}`, `{"workflow":{"source":"x","format":"dax"}}`,
	`{"workflow":{"source":"\u003cadag/\u003e","format":"dax"}}`, `{"workflow":{"source":null}}`, `{"workflow":null}`, `{"workflow":[]}`, `{"workflow":{"source":1}}`,
	`{"workflow":{"synthetic":{"nodes":5}},"workflow":{"synthetic":{"seed":2}}}`, `{"workflow":{"synthetic":null}}`,
	`{"fleet":{"types":[{"type":"t2.micro"},{"count":3},null]}}`, `{"fleet":{"types":[]}}`, `{"fleet":{"types":null}}`, `{"fleet":{"types":{}}}`, `{"fleet":{"types":[1]}}`,
	`{"market":{"regime":"hostile"},"market":{"seed":2}}`, `{"market":null}`, `{"market":"x"}`, `{"market":{}}`,
	`{"plan":{"plan":[{"activation":"a","vm":1},{"activation":"b","vm":2}]}}`, `{"plan":{"plan":[{"activation":"a"},{"activation":"a"}]}}`,
	`{"plan":{"plan":null}}`, `{"plan":{"plan":[]}}`, `{"plan":{"plan":{}}}`, `{"plan":{"plan":[null,{"vm":1.5}]}}`, `{"plan":{"plan":[{"Activation":"a","VM":3,"x":[]}]}}`, `{"plan":null}`,
	`{"plan":{"schema_version":"v1"},"plan":{"workflow":"w"}}`,
	`{"provenance":[{"workflow":"w","wall":"2024-01-02T03:04:05Z"},{"wall":null},{"wall":""}]}`, `{"provenance":[{"wall":"yesterday"}]}`, `{"provenance":[{"wall":5}]}`, `{"provenance":[{"wall":{}}]}`,
	`{"provenance":[]}`, `{"provenance":null}`, `{"provenance":[null]}`, `{"provenance":[{"vm_id":1,"success":true,"start_at":0.5}]}`, `{"provenance":[{}, {}, {}]}`, `{"provenance":[{},{},{},{}]}`,
	`{"fleet":{"types":[{},{"count":3},{}]}}`,
	`{"error":{"code":"x"},"error":{"reason":"y"}}`, `{"error":null}`, `{"state":"done","id":"j"}`, `{"code":"not_found","reason":"no job"}`,
	`{} `, "{}\n\t\r ", `{} x`, `{}{}`, `{}}`, `{} null`, "\ufeff{}",
	strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000),
	`{"unknown":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
	`{"unknown":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `}`,
}

// serviceWorkloads are the end-to-end benchmark's service workloads.
// testdata/service holds a real submission and terminal status of each,
// recorded from an in-process schedd at seed 1 with each request built
// as the benchmark builds its first structure.
var serviceWorkloads = []string{"svc-warm", "svc-cold-large", "svc-replay-market"}

func addRecorded(f *testing.F, kind string) {
	for _, w := range serviceWorkloads {
		body, err := os.ReadFile(filepath.Join("testdata", "service", w+"."+kind+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
}

// FuzzDecodeSubmit checks api.SubmitRequest's one-pass decode against
// json.Unmarshal into the same type without methods, starting from the
// zero request and from one with every field set: both must accept the
// same bodies, and decode them to deeply equal requests. Its seeds are
// the recorded bodies, the bodies internal/schedd's FuzzSubmit seeds
// with, and edgeCases.
func FuzzDecodeSubmit(f *testing.F) {
	addRecorded(f, "submit")
	job := `{"schema_version":"v1","workflow":{"synthetic":{"family":"montage","nodes":20,"seed":1}},"fleet":{},"learn":{"episodes":5},"seed":1`
	f.Add([]byte(job + `}`))
	f.Add([]byte(job + `,"plan":{"schema_version":"v1","workflow":"montage","fleet":"table1-16vcpu","plan":[{"activation":"ID00000","vm":0}]}}`))
	f.Add([]byte(job + `,"plan":{"schema_version":"v9","plan":[{"activation":"ID00000","vm":0}]}}`))
	f.Add([]byte(`{"workflow":{"synthetic":{}},"execute":true,"market":{"regime":"hostile","horizon":600}}`))
	f.Add([]byte(`{"workflow":{"synthetic":{"nodes":1000000000}}}`))
	f.Add([]byte(`{"workflow":{"synthetic":{}},"fleet":{"types":[{"type":"t2.micro","count":1000000000}]}}`))
	f.Add([]byte(`{"workflow":{"synthetic":{}},"execute":true,"market":{"regime":"stable","horizon":1e12}}`))
	for _, c := range edgeCases {
		f.Add([]byte(c))
	}
	starts := submitStarts(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[api.SubmitRequest, plainSubmit](t, data, starts, decodeSubmit)
	})
}

// FuzzDecodeStatus is FuzzDecodeSubmit for api.JobStatus.
func FuzzDecodeStatus(f *testing.F) {
	addRecorded(f, "status")
	f.Add([]byte(`{"schema_version":"v1","id":"j000001","state":"queued","workflow":"montage","activations":20,"fleet":"table1-16vcpu","vms":4,"submitted_at":"2024-01-02T03:04:05Z"}`))
	f.Add([]byte(`{"schema_version":"v1","id":"j000002","state":"failed","error":{"code":"internal","reason":"boom"}}`))
	for _, c := range edgeCases {
		f.Add([]byte(c))
	}
	starts := statusStarts(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[api.JobStatus, plainStatus](t, data, starts, decodeStatus)
	})
}

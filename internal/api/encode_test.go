package api_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"reassign/internal/api"
	"reassign/internal/core"
	"reassign/internal/provenance"
)

// encodeRef is what the writer is held to: json.NewEncoder(w).Encode,
// the daemon's former response path.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkEncode fails unless st.AppendJSON writes Encode's bytes, or
// both fail. The writer appends: what dst held stays in front.
func checkEncode(t *testing.T, st *api.JobStatus) {
	t.Helper()
	want, wantErr := encodeRef(st)
	got, err := st.AppendJSON([]byte("prefix"))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("writer error %v, encoding/json error %v, for %+v", err, wantErr, st)
	}
	if err == nil && (!bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want)) {
		t.Fatalf("writer:\n%s\nencoding/json:\n%s", got, want)
	}
}

// FuzzEncodeStatus holds JobStatus.AppendJSON to json.Encoder.Encode
// over a status with every field set from the input: two strings run
// through every string field, two floats and their neighbours through
// every float field, and flags choose which optional parts are zero.
// The seeds cover HTML characters, U+2028 and U+2029, invalid UTF-8,
// control bytes, ±0, NaN and ±Inf, and floats either side of 1e-6 and
// 1e21, where the number form changes.
func FuzzEncodeStatus(f *testing.F) {
	f.Add("j000001", "<a&b>", 0.5, 1e21, int64(7), int64(1_700_000_000), uint16(0xffff))
	f.Add("\u2028\u2029", "\xff\xfe\xe2\x82", 1e-6, 9.999999999999999e20, int64(-3), int64(-62135596800), uint16(0x5555))
	f.Add("\b\f\n\r\t\x01\x1f\x7f", `"\/`, 9.99e-7, -1e-7, int64(0), int64(0), uint16(0xaaaa))
	f.Add("", "\u00e9\U0001f600", math.Copysign(0, -1), 123456789.125, int64(1<<40), int64(253402300800), uint16(0x0f0f))
	f.Add("x", "y", math.NaN(), 1.0, int64(1), int64(1), uint16(0xffff))
	f.Add("x", "y", 1.0, math.Inf(-1), int64(1), int64(1), uint16(0xffff))
	f.Add("x", "y", 1e-320, 5e-324, int64(1), int64(1), uint16(0xffff))
	f.Fuzz(func(t *testing.T, a, b string, x, y float64, n, wall int64, flags uint16) {
		on := func(bit int) bool { return flags&(1<<bit) != 0 }
		pick := func(bit int, v string) string {
			if on(bit) {
				return v
			}
			return ""
		}
		num := func(bit int, v float64) float64 {
			if on(bit) {
				return v
			}
			return 0
		}
		st := &api.JobStatus{
			SchemaVersion: a, ID: b, State: a + b,
			Workflow: pick(0, b), Activations: int(n), Fleet: pick(1, a), VMs: int(-n),
			Tenant: pick(2, a+"\u2028"), DeadlineSeconds: num(3, x), DeadlineMissed: on(4),
			SubmittedAt: pick(5, b), StartedAt: pick(6, a), FinishedAt: pick(7, b+a),
			LatencySeconds: num(8, y), Episodes: int(n / 3), CacheHit: on(9), LearningSeconds: num(10, x*y),
			ExecMakespanSeconds: num(11, -x), MarketCostUSD: num(12, math.Nextafter(y, 0)), Preemptions: int(n % 5),
		}
		if on(13) {
			entries := []core.PlanEntry{{Activation: a, VM: int(n)}, {Activation: b + "<", VM: 1}}
			plan, err := core.NewPlanFromEntries(entries)
			if err != nil {
				plan, _ = core.NewPlanFromEntries(entries[1:])
			}
			st.Plan = &api.PlanDocument{SchemaVersion: a, Workflow: pick(0, a), Fleet: pick(1, b), MakespanSeconds: num(2, y), Plan: plan}
			if on(3) {
				st.Plan.Plan = core.Plan{}
			}
		}
		if on(14) {
			st.Provenance = []provenance.Execution{
				{WorkflowName: a, RunID: b, TaskID: a + "&", Activity: b, VMID: int(n), VMType: a,
					ReadyAt: x, StartAt: y, FinishAt: math.Nextafter(x, math.Inf(1)), Attempts: int(-n), Success: on(5), Wall: provenance.Stamp(wall)},
				{},
			}
		}
		if on(15) {
			st.Error = &api.Error{Code: a, Field: pick(6, b), Reason: b}
		}
		checkEncode(t, st)
		list := []*api.JobStatus{st, {ID: a}, nil}
		want, wantErr := encodeRef(list)
		got, err := api.AppendJSONList(nil, list)
		if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("list: writer %q (%v), encoding/json %q (%v)", got, err, want, wantErr)
		}
	})
}

// fill sets every field of v, recursively, to a value that is not its
// type's zero, so no omitempty rule leaves it out. A core.Plan, whose
// entries are unexported, gets one entry.
func fill(t *testing.T, v reflect.Value) {
	if v.Type() == reflect.TypeOf(core.Plan{}) {
		plan, err := core.NewPlanFromEntries([]core.PlanEntry{{Activation: "a", VM: 1}})
		if err != nil {
			t.Fatal(err)
		}
		v.Set(reflect.ValueOf(plan))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1_700_000_000)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%v has unexported field %s: fill cannot set it", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, v.Field(i))
		}
	default:
		t.Fatalf("fill: no value for a %v field; teach fill and the writer its kind", v.Type())
	}
}

// TestEncodeStatusWritesEveryField: a status with every field of
// JobStatus, PlanDocument, provenance.Execution and Error set encodes
// as encoding/json encodes it, so a field added to any of them that
// the writer does not write fails here.
func TestEncodeStatusWritesEveryField(t *testing.T) {
	var st api.JobStatus
	fill(t, reflect.ValueOf(&st).Elem())
	if st.Plan == nil || len(st.Provenance) != 1 || st.Error == nil || st.Provenance[0].Wall == 0 {
		t.Fatalf("fill left a part empty: %+v", st)
	}
	checkEncode(t, &st)
}

// TestRecordedStatusesReencode: each recorded terminal status decodes
// and writes back to its own bytes.
func TestRecordedStatusesReencode(t *testing.T) {
	for _, w := range serviceWorkloads {
		body, err := os.ReadFile(filepath.Join("testdata", "service", w+".status.json"))
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		if err := st.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
		got, err := st.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s: re-encoded status differs from the recorded body", w)
		}
	}
}

// TestEncodeNonFinite: a NaN or an infinity is the writer's error, as
// it is Encode's, wherever it sits.
func TestEncodeNonFinite(t *testing.T) {
	for _, st := range []*api.JobStatus{
		{LatencySeconds: math.NaN()},
		{MarketCostUSD: math.Inf(1)},
		{Plan: &api.PlanDocument{MakespanSeconds: math.Inf(-1)}},
		{Provenance: []provenance.Execution{{StartAt: math.NaN()}}},
	} {
		if _, err := st.AppendJSON(nil); err == nil {
			t.Errorf("%+v: written without an error", st)
		}
		checkEncode(t, st)
	}
}

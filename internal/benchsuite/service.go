package benchsuite

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"reassign/internal/api"
)

// The service-decode tier measures the two documents every service job
// decodes: the submission, in the daemon's submit handler, and the
// terminal status, in the client. It decodes real bodies of the
// end-to-end benchmark's service workloads (BENCHMARK.json), recorded
// from an in-process schedd in internal/api/testdata/service, which
// also seed internal/api's differential fuzz targets: svc-replay-market's
// CyberShake-100 submission, with its plan and market, and its terminal
// status with 100 provenance records, and svc-warm's Montage-50 DAX
// submission.

// serviceBody reads a recorded body. The path is relative to the
// repository root, where cmd/benchjson, cmd/benchguard and the root
// package's benchmarks run.
func serviceBody(b *testing.B, name string) []byte {
	b.Helper()
	body, err := os.ReadFile(filepath.Join("internal", "api", "testdata", "service", name))
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// DecodeSubmit benchmarks the submit handler's decode of a recorded
// request body.
func DecodeSubmit(name string) func(*testing.B) {
	return func(b *testing.B) {
		body := serviceBody(b, name)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var req api.SubmitRequest
			if _, err := api.DecodeSubmit(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// DecodeStatus benchmarks a client's decode of a recorded status,
// through json.Unmarshal as every client of the service calls it.
func DecodeStatus(name string) func(*testing.B) {
	return func(b *testing.B) {
		body := serviceBody(b, name)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var st api.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The service-encode tier measures the daemon's side of the terminal
// status: api.JobStatus.AppendJSON, the reflection-free writer behind
// every status, submit, cancel and list response, writing the recorded
// svc-replay-market status (plan and 100 provenance records) into a
// reused buffer, as the daemon writes into a pooled one.

// EncodeStatus benchmarks writing a recorded status, decoded once.
func EncodeStatus(name string) func(*testing.B) {
	return func(b *testing.B) {
		body := serviceBody(b, name)
		var st api.JobStatus
		if err := st.UnmarshalJSON(body); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, len(body))
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = st.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reassign/internal/api"
)

// TestSubmitAndPollVanishedJob: a job the daemon no longer knows — a
// 404 with a typed not_found body — ends the poll at once with that
// error, instead of reading as a status with no state until the
// timeout.
func TestSubmitAndPollVanishedJob(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.JobStatus{SchemaVersion: api.SchemaVersion, ID: "j000001", State: api.StateQueued})
			return
		}
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.Errorf(api.CodeNotFound, "", "no job %s", r.URL.Path))
	}))
	defer ts.Close()
	start := time.Now()
	_, _, err := submitAndPoll(ts.Client(), ts.URL, api.SubmitRequest{}, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") || !strings.Contains(err.Error(), "no job") {
		t.Fatalf("error %v, want the poll's 404 and its reason", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("gave up after %v, want at the first poll", took)
	}
}

// TestSubmitAndPollRefusedUndecodable: a refused submission whose body
// is not a typed error reports why it did not decode, not an empty
// reason.
func TestSubmitAndPollRefusedUndecodable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream went away", http.StatusBadGateway)
	}))
	defer ts.Close()
	_, _, err := submitAndPoll(ts.Client(), ts.URL, api.SubmitRequest{}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "HTTP 502") || !strings.Contains(err.Error(), "undecodable") {
		t.Fatalf("error %v, want the 502 and why its body did not decode", err)
	}
}

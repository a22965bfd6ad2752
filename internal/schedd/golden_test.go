package schedd

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/exec"
	"reassign/internal/market"
)

var update = flag.Bool("update", false, "rewrite the golden exposition files under testdata")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestTenantSeriesGolden pins the per-tenant exposition over a fixed
// sequence of lifecycle transitions and latencies. The "bulk" tenant
// overruns its window, so its percentiles cover the newest samples
// only; "zeta" has no finished job, so it has no latency samples.
func TestTenantSeriesGolden(t *testing.T) {
	tt := newTenantTracker(8)
	for i := 0; i < 3; i++ {
		tt.add("acme", counts{jobsSubmitted: 1, jobsQueued: 1})
		tt.add("acme", counts{jobsQueued: -1, jobsRunning: 1})
	}
	tt.finished("acme", api.StateDone, 0.25, 1, true)
	tt.finished("acme", api.StateFailed, 2.5, 1, true)
	tt.finished("acme", api.StateCanceled, 0.125, 0, true)
	tt.add("acme", counts{jobsRejected: 1})
	tt.add("acme", counts{jobsRejected: 1})
	tt.add("acme", counts{jobsSubmitted: 1, jobsQueued: 1}) // still queued

	tt.add(DefaultTenant, counts{jobsSubmitted: 1, jobsQueued: 1})
	tt.finished(DefaultTenant, api.StateCanceled, 0.001, 0, false)

	for i := 0; i < 12; i++ {
		tt.add("bulk", counts{jobsSubmitted: 1, jobsQueued: 1})
		tt.add("bulk", counts{jobsQueued: -1, jobsRunning: 1})
		tt.finished("bulk", api.StateDone, float64(i*i)/10+0.3, 5, true)
	}
	tt.add("bulk", counts{jobsSubmitted: 1, jobsQueued: 1})
	tt.add("bulk", counts{jobsQueued: -1, jobsRunning: 1}) // still running

	for i := 0; i < 1000000; i++ {
		tt.add("zeta", counts{jobsRejected: 1})
	}

	var buf bytes.Buffer
	tt.writeProm(&buf)
	checkGolden(t, "tenants.prom", buf.Bytes())
}

// TestMarketSeriesGolden pins the market exposition over a fixed
// hostile playback and two run reports.
func TestMarketSeriesGolden(t *testing.T) {
	fleet, err := cloud.FleetTable1(32)
	if err != nil {
		t.Fatal(err)
	}
	rg, _ := market.RegimeByName("hostile")
	trc, err := market.Generate(market.DefaultCatalogue(), fleet, rg, 42, 3600)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := market.NewPlayback(trc, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt := newMarketTracker()
	mt.record(pb, &exec.Report{
		Makespan:       1800,
		Cordoned:       3,
		Preempted:      1,
		CostByProvider: []market.ProviderCost{{Provider: "aws", Cost: 1.25}, {Provider: "gcp", Cost: 0.1}},
	})
	mt.record(pb, &exec.Report{
		Makespan:       3600,
		Cordoned:       1,
		Preempted:      2,
		CostByProvider: []market.ProviderCost{{Provider: "azure", Cost: 2.0 / 3}, {Provider: "aws", Cost: 0.2}},
	})
	var buf bytes.Buffer
	mt.writeProm(&buf)
	checkGolden(t, "market.prom", buf.Bytes())
}

// TestEmptyScrapeGolden pins a whole /metrics scrape of a daemon that
// has seen no job.
func TestEmptyScrapeGolden(t *testing.T) {
	s := New(Config{Workers: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type %q", got)
	}
	checkGolden(t, "empty_scrape.prom", rec.Body.Bytes())
}

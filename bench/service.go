package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/sched"
	"reassign/internal/schedd"
	"reassign/internal/sim"
)

// The load model. Callers are workflow engines that submit a DAG and
// block until the plan comes back, so the loop is closed: each caller
// sends its next job only after the previous one is in hand. These
// are constants of the benchmark, never flags — see README.md for the
// prototype numbers behind them.
const (
	callers      = 2                // one keep-alive connection each; two keep the one CPU the run is confined to saturated and the daemon's queue and locks in play
	pollInterval = time.Millisecond // completion is detected by polling GET /v1/jobs/{id}
	structures   = 8                // distinct workflow structures cycled by every service workload
	setupRepeats = 3                // setup_s is the median of this many full set-ups
	jobTimeout   = 60 * time.Second // a job still running after this is a failed operation
)

// seedSentinel marks where the per-job seed goes in a request body.
const seedSentinel = 987654321012345678

// structure is one workflow structure of a corpus: the request body
// the daemon sees (split around the seed digits, so a job's body is
// two copies and an integer), and the client-side parse of the same
// document, against which returned plans are validated.
type structure struct {
	w          *dag.Workflow
	fleet      *cloud.Fleet
	head, tail []byte
	ref        float64 // HEFT makespan on (w, fleet)
}

func newStructure(req api.SubmitRequest) (*structure, error) {
	req.SchemaVersion = api.SchemaVersion
	req.Seed = seedSentinel
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	head, tail, ok := bytes.Cut(b, []byte(strconv.FormatInt(seedSentinel, 10)))
	if !ok {
		return nil, fmt.Errorf("request body carries no seed field")
	}
	w, err := req.Workflow.Build()
	if err != nil {
		return nil, err
	}
	fleet, err := req.Fleet.Build()
	if err != nil {
		return nil, err
	}
	return &structure{w: w, fleet: fleet, head: head, tail: tail}, nil
}

func (s *structure) body(dst []byte, seed int64) []byte {
	dst = append(dst[:0], s.head...)
	dst = strconv.AppendInt(dst, seed, 10)
	return append(dst, s.tail...)
}

// svcWorkload is one closed-loop workload against the daemon.
type svcWorkload struct {
	name             string
	why              string
	measured, warmup int  // job counts at scale 1
	sample           int  // jobs the traced pass replays through the mirror
	execute          bool // jobs replay a submitted plan and execute it; the reference is the plan's own makespan
	readSide         bool // the traced pass also times /metrics and the job list against the state the window left
	// request builds structure d's submission; set-up calls it once
	// per structure.
	request func(d int) (api.SubmitRequest, error)
}

// counts scales the job counts. Every structure gets at least one
// warm-up job so that a warm workload's measured jobs all hit the
// cache, and at least one measured job.
func (wl *svcWorkload) counts(scale float64) (measured, warmup int) {
	scaled := func(n int) int {
		return max(structures, int(math.Round(float64(n)*scale)))
	}
	return scaled(wl.measured), scaled(wl.warmup)
}

// jobRecord is what the caller keeps of one job; the decoded status
// itself is dropped once checked, so the benchmark's own heap stays
// small beside the daemon's.
type jobRecord struct {
	id           string
	err          string // non-empty: a failed operation
	latency      time.Duration
	planMakespan float64
	execMakespan float64
	ratio        float64
	cacheHit     bool
	episodes     int
	planHash     uint64

	// Traced pass only.
	submitRTT, statusRTT time.Duration
	queueWait, run       time.Duration
	statusBytes, polls   int
}

// client is one caller's connection and scratch space.
type client struct {
	http *http.Client
	buf  bytes.Buffer
	body []byte
	seen []bool
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// call sends one request and decodes the JSON reply into `into` (nil
// keeps the raw bytes in c.buf). It returns the status code and the
// body size.
func (c *client) call(method, url string, body []byte, into any) (int, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, c.buf.Len(), err
	}
	if into != nil {
		if err := json.Unmarshal(c.buf.Bytes(), into); err != nil {
			return resp.StatusCode, c.buf.Len(), fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, c.buf.Len(), nil
}

// session is one started daemon with its corpus and callers.
type session struct {
	wl      *svcWorkload
	seed    int64
	sts     []*structure
	srv     *schedd.Server
	ts      *httptest.Server
	clients [callers]*client
}

// start is the set-up a user of the service pays before the first
// request: generate the corpus, start the daemon. The warm-up that
// completes set-up is driven by the caller.
func (wl *svcWorkload) start(seed int64) (*session, error) {
	s := &session{wl: wl, seed: seed}
	for d := 0; d < structures; d++ {
		req, err := wl.request(d)
		if err != nil {
			return nil, fmt.Errorf("structure %d: %w", d, err)
		}
		st, err := newStructure(req)
		if err != nil {
			return nil, fmt.Errorf("structure %d: %w", d, err)
		}
		s.sts = append(s.sts, st)
	}
	s.srv = schedd.New(schedd.Config{})
	s.srv.Start()
	s.ts = httptest.NewServer(s.srv.Handler())
	for c := range s.clients {
		s.clients[c] = newClient()
	}
	return s, nil
}

func (s *session) stop() {
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // nothing is in flight; a timeout here only delays exit
}

// references computes each structure's HEFT makespan, the denominator
// of makespan_vs_ref on learning workloads.
func (s *session) references() error {
	for _, st := range s.sts {
		res, err := sim.Run(st.w, st.fleet, &sched.HEFT{}, sim.Config{})
		if err != nil {
			return fmt.Errorf("HEFT reference: %w", err)
		}
		st.ref = res.Makespan
	}
	return nil
}

// jobSeed is job i's submission seed.
func (s *session) jobSeed(i int) int64 { return s.seed*1_000_003 + int64(i) + 1 }

// drive issues jobs first..first+n-1 in a closed loop and returns
// their records and the wall time of the whole batch. Structure d's
// jobs are all issued, in order, by caller d mod callers: the warm
// Q-table a job starts from is then the one its predecessor of the
// same structure left, whatever the other caller is doing, so every
// plan is the same on every run.
func (s *session) drive(first, n int, rec *recorder) ([]jobRecord, time.Duration) {
	recs := make([]jobRecord, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := first; i < first+n; i++ {
				if d := i % structures; d%callers == c {
					recs[i-first] = s.job(s.clients[c], i, s.sts[d], rec)
				}
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	for i := range recs {
		r, ref := &recs[i], s.sts[(first+i)%structures].ref
		switch {
		case r.err != "":
		case s.wl.execute:
			r.ratio = r.execMakespan / r.planMakespan
		case ref > 0: // not yet during warm-up, whose ratios nobody reads
			r.ratio = r.planMakespan / ref
		}
	}
	return recs, window
}

func terminal(state string) bool {
	return state == api.StateDone || state == api.StateFailed || state == api.StateCanceled
}

// job submits job i and polls until its terminal status is decoded.
// Latency is the caller's: POST start to decoded terminal status.
func (s *session) job(c *client, i int, st *structure, rec *recorder) (r jobRecord) {
	c.body = st.body(c.body, s.jobSeed(i))
	t0 := time.Now()
	var js api.JobStatus
	code, _, err := c.call(http.MethodPost, s.ts.URL+"/v1/jobs", c.body, &js)
	t1 := time.Now()
	if err != nil || code != http.StatusAccepted {
		r.err = fmt.Sprintf("job %d: submit: status %d, %v: %.200s", i, code, err, c.buf.Bytes())
		return r
	}
	r.id = js.ID
	root := rec.reserve(r.id, "job", t0)
	rec.add(root, r.id, "schedd.submit", t0, t1)
	url := s.ts.URL + "/v1/jobs/" + r.id
	var p0, p1 time.Time
	for {
		time.Sleep(pollInterval)
		p0 = time.Now()
		js = api.JobStatus{}
		code, r.statusBytes, err = c.call(http.MethodGet, url, nil, &js)
		p1 = time.Now()
		r.polls++
		if err != nil || code != http.StatusOK {
			r.err = fmt.Sprintf("job %s: status: code %d, %v", r.id, code, err)
			return r
		}
		if terminal(js.State) {
			break
		}
		if p1.Sub(t0) > jobTimeout {
			r.err = fmt.Sprintf("job %s: still %s after %v", r.id, js.State, jobTimeout)
			return r
		}
		rec.add(root, r.id, "schedd.poll", p0, p1)
	}
	r.latency = p1.Sub(t0)
	rec.add(root, r.id, "schedd.status", p0, p1)
	rec.finish(root, p1)

	if err := s.check(c, &js, st); err != nil {
		r.err = fmt.Sprintf("job %s: %v", r.id, err)
		return r
	}
	r.planMakespan = js.Plan.MakespanSeconds
	r.execMakespan = js.ExecMakespanSeconds
	r.cacheHit = js.CacheHit
	r.episodes = js.Episodes
	r.planHash = hashPlan(js.Plan.Plan)
	if rec != nil {
		r.submitRTT, r.statusRTT = t1.Sub(t0), p1.Sub(p0)
		sub, e1 := time.Parse(time.RFC3339Nano, js.SubmittedAt)
		sta, e2 := time.Parse(time.RFC3339Nano, js.StartedAt)
		fin, e3 := time.Parse(time.RFC3339Nano, js.FinishedAt)
		if e1 != nil || e2 != nil || e3 != nil {
			r.err = fmt.Sprintf("job %s: unparsable timestamps", r.id)
			return r
		}
		r.queueWait, r.run = sta.Sub(sub), fin.Sub(sta)
		rec.add(root, r.id, "schedd.queue_wait", sub, sta)
		rec.add(root, r.id, "schedd.run", sta, fin)
	}
	return r
}

// check is the correctness gate on one terminal status: the job is
// done, its plan is valid for the workflow and fleet it was asked
// for, and an executed job carries exactly one ok provenance record
// per activation.
func (s *session) check(c *client, js *api.JobStatus, st *structure) error {
	if js.State != api.StateDone {
		return fmt.Errorf("state %s: %v", js.State, js.Error)
	}
	if js.Plan == nil {
		return fmt.Errorf("done without a plan")
	}
	if err := js.Plan.Plan.Validate(st.w, st.fleet); err != nil {
		return fmt.Errorf("returned plan: %w", err)
	}
	if !(js.Plan.MakespanSeconds > 0) {
		return fmt.Errorf("plan makespan %v", js.Plan.MakespanSeconds)
	}
	if !s.wl.execute {
		return nil
	}
	if !(js.ExecMakespanSeconds > 0) {
		return fmt.Errorf("exec makespan %v", js.ExecMakespanSeconds)
	}
	return c.checkProvenance(js, st.w)
}

func (c *client) checkProvenance(js *api.JobStatus, w *dag.Workflow) error {
	if len(js.Provenance) != w.Len() {
		return fmt.Errorf("%d provenance records for %d activations", len(js.Provenance), w.Len())
	}
	c.seen = append(c.seen[:0], make([]bool, w.Len())...)
	for _, e := range js.Provenance {
		a := w.Get(e.TaskID)
		if a == nil || c.seen[a.Index] || !e.Success {
			return fmt.Errorf("provenance record for %q is unknown, duplicated or not ok", e.TaskID)
		}
		c.seen[a.Index] = true
	}
	return nil
}

func hashPlan(p core.Plan) uint64 {
	h := fnv.New64a()
	var vm [8]byte
	for _, e := range p.Entries() {
		h.Write([]byte(e.Activation))
		binary.LittleEndian.PutUint64(vm[:], uint64(e.VM))
		h.Write(vm[:])
	}
	return h.Sum64()
}

// digest folds what must be identical between two runs of one commit
// and seed — every job's makespan ratio, cache-hit flag, episode
// count and plan — into one short string.
func digest(recs []jobRecord) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.ratio))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], r.planHash)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(r.episodes)<<1)
		if r.cacheHit {
			b[0] |= 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// window is one measured batch with the memory it cost.
type window struct {
	recs     []jobRecord
	wall     time.Duration
	alloc    uint64 // TotalAlloc delta over the batch
	retained uint64 // HeapAlloc after a collection at its end
}

// measure runs fn between two memory readings. The collection before
// it keeps set-up garbage off the window's bill.
func measure(fn func() ([]jobRecord, time.Duration)) window {
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	recs, wall := fn()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	return window{recs, wall, m1.TotalAlloc - m0.TotalAlloc, m2.HeapAlloc}
}

// endToEndMetrics fills the seven end-to-end metrics from a window. A
// failed job has no latency sample: it counts as missing, and its run
// is reported incorrect.
func endToEndMetrics(res *result, win window, setups []float64) {
	var lat, ratios []float64
	for _, r := range win.recs {
		if r.err != "" {
			res.fail("%s", r.err)
			continue
		}
		lat = append(lat, ms(r.latency))
		ratios = append(ratios, r.ratio)
	}
	res.digest = digest(win.recs)
	n := float64(len(win.recs))
	res.metrics["jobs_per_s"] = float64(len(lat)) / win.wall.Seconds()
	res.metrics["job_latency_p50_ms"] = quantile(lat, 0.50)
	res.metrics["job_latency_tail10_ms"] = tailMean(lat, 0.10)
	res.metrics["makespan_vs_ref"] = mean(ratios)
	res.metrics["alloc_kb_per_job"] = float64(win.alloc) / 1024 / n
	res.metrics["retained_heap_mb"] = float64(win.retained) / (1 << 20)
	res.metrics["setup_s"] = quantile(setups, 0.5)
}

// setUp runs one full set-up — corpus, program start, warm-up —
// setupRepeats times (once when tracing) and returns how long each
// took; the last one is the set-up the run measures against. discard
// releases a set-up that is being replaced, off the clock.
func setUp(res *result, opts options, one func() (warm []jobRecord, err error), discard func()) ([]float64, error) {
	repeats := setupRepeats
	if opts.trace {
		repeats = 1
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		if k > 0 && discard != nil {
			discard()
		}
		t0 := time.Now()
		warm, err := one()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted += len(warm)
		for _, r := range warm {
			if r.err != "" {
				res.fail("warm-up: %s", r.err)
			}
		}
	}
	return setups, nil
}

// run is the workload's entry point: set up, then either the
// end-to-end window or the traced pass.
func (wl *svcWorkload) run(opts options) (*result, error) {
	nMeasured, nWarmup := wl.counts(opts.scale)
	res := &result{
		workload: wl.name,
		counts:   fmt.Sprintf("measured=%d warmup=%d callers=%d poll=%v", nMeasured, nWarmup, callers, pollInterval),
		metrics:  map[string]float64{},
	}
	var s *session
	setups, err := setUp(res, opts, func() (warm []jobRecord, err error) {
		if s, err = wl.start(opts.seed); err == nil {
			warm, _ = s.drive(0, nWarmup, nil)
		}
		return warm, err
	}, func() { s.stop() })
	if err != nil {
		return nil, err
	}
	defer s.stop()
	res.attempted += nMeasured
	if err := s.references(); err != nil {
		return nil, err
	}
	if opts.trace {
		return res, wl.traced(s, res, opts, nWarmup, nMeasured)
	}
	win := measure(func() ([]jobRecord, time.Duration) { return s.drive(nWarmup, nMeasured, nil) })
	endToEndMetrics(res, win, setups)
	return res, nil
}

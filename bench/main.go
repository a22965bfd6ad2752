// Command bench is the repository's end-to-end benchmark: four
// closed-loop workloads driven through the public surface only (an
// in-process schedd behind httptest for the service, exec.New over
// exec.TCP for the execution stage), seven end-to-end metrics per
// workload, and a separate traced pass that attributes time to
// layers. BENCHMARK.json at the repository root is its contract;
// README.md in this directory says why each workload and constant
// exists.
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -trace               every workload, per-layer metrics + span files
//	go run ./bench -workload svc-warm   one workload
//	go run ./bench -aa                  the full set twice, disagreement beside each bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// nominalSeconds is the measured window the job counts in
// workloads.go are sized for on one CPU of the reference box (main
// confines the process to one); it equals run_seconds in
// BENCHMARK.json. -seconds scales every count by seconds/nominalSeconds,
// so the work in a run is fixed by its flags, never by a clock.
const nominalSeconds = 20

// options selects what one invocation runs.
type options struct {
	seed  int64
	scale float64 // multiplies every job count
	trace bool
	out   string // directory for span files
}

// result is one workload's outcome: the gate counts and the metrics
// of the pass that ran (end-to-end, or per-layer when traced).
type result struct {
	workload  string
	counts    string // job counts, for the stamp
	attempted int
	failed    int
	failures  []string // first few reasons, for the operator
	digest    string   // hash of every job's makespan ratio, cache flag and episode count
	metrics   map[string]float64
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: not confined to one CPU (%v): timings will follow the host's scheduler\n", err)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all of "+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal measured window; job counts scale with it")
	scale := fs.Float64("scale", 1, "extra multiplier on every job count (tests use 0.01)")
	var trace boolish
	fs.Var(&trace, "trace", "traced pass: per-layer metrics and span files instead of end-to-end metrics")
	aa := fs.Bool("aa", false, "run the end-to-end set twice and print the disagreement beside each bound")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for span files")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments or non-positive -seconds/-scale")
		return 2
	}
	opts := options{seed: *seed, scale: *scale * *seconds / nominalSeconds, trace: bool(trace), out: *out}

	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *aa {
		return runAA(selected, opts, stdout, stderr)
	}
	code := 0
	for _, w := range selected {
		res, err := w.run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res, opts)
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}

// boolish is -trace: a bare flag for people (`-trace`), and 0|1 for
// the harness, which passes the value as its own argument.
type boolish bool

func (b *boolish) String() string   { return fmt.Sprint(bool(*b)) }
func (b *boolish) IsBoolFlag() bool { return true }
func (b *boolish) Set(s string) error {
	switch s {
	case "1", "true":
		*b = true
	case "0", "false":
		*b = false
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

// joinTraceValue rewrites `-trace 0` as `-trace=0`: a boolean flag
// does not consume the next argument on its own.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// printResult writes the stamp, every metric by name with its unit,
// the gate counts, and — as the last line — the one JSON object the
// harness reads.
func printResult(w io.Writer, res *result, opts options) {
	defs := endToEnd
	pass := "end-to-end"
	if opts.trace {
		defs, pass = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s) %s\n", res.workload, pass, res.counts)
	fmt.Fprintln(w, stamp(opts))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = value{v, d.unit}
	}
	fmt.Fprintf(w, "jobs: attempted %d  succeeded %d  failed %d  digest %s\n",
		res.attempted, res.attempted-res.failed, res.failed, res.digest)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to encode
	fmt.Fprintf(w, "%s\n", b)
}

// stamp is the environment line carried by every output: numbers are
// only comparable between runs whose stamps agree.
func stamp(opts options) string {
	model, nproc := cpuInfo()
	return fmt.Sprintf("env: go=%s gomaxprocs=%d cpus_allowed=%d nproc=%d cpu=%q commit=%s seed=%d scale=%g",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), nproc, model, gitCommit(), opts.seed, opts.scale)
}

// cpuInfo reads the CPU model and the box's CPU count; runtime.NumCPU
// is what this process may use, which main has cut to one.
func cpuInfo() (model string, nproc int) {
	model, nproc = "unknown", runtime.NumCPU()
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return model, nproc
	}
	if m := regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`).FindSubmatch(b); m != nil {
		model = string(m[1])
	}
	if n := len(regexp.MustCompile(`(?m)^processor\s*:`).FindAll(b, -1)); n > 0 {
		nproc = n
	}
	return model, nproc
}

// gitCommit reads the checked-out commit from .git without running
// git; a source tree that is not a repository reports "none".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown" // packed ref; not worth a parser
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// Command benchjson runs the governed benchmark suite
// (internal/benchsuite) — Q-table micro-benchmarks, the TD hot path,
// the full 100-episode learning run, the replica-scaling ladder and
// the large-DAG tier — and writes the results to a JSON file so
// successive commits can be compared mechanically.
//
// Usage:
//
//	benchjson [-o BENCH_core.json] [-benchtime 1s]
//
// The output maps benchmark name → {ns_per_op, allocs_per_op,
// bytes_per_op, iterations, extra}, where extra carries ReportMetric
// units such as the learning benches' episodes/sec, plus one "_env"
// entry (benchsuite.Env: go version, GOMAXPROCS, CPU model, commit)
// saying where the numbers were taken. `make bench` writes
// BENCH_core.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"reassign/internal/benchsuite"
)

func main() {
	// Register the testing flags (test.benchtime in particular) so
	// testing.Benchmark can be tuned below.
	testing.Init()
	out := flag.String("o", "BENCH_core.json", "output JSON path")
	benchtime := flag.Duration("benchtime", time.Second, "minimum run time per benchmark")
	flag.Parse()

	// testing.Benchmark honours -test.benchtime only via the flag
	// package; set it explicitly so our -benchtime flag takes effect.
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	benches := benchsuite.Suite()
	env := benchsuite.CurrentEnv()
	fmt.Printf("env: go=%s gomaxprocs=%d cpu=%q commit=%s\n", env.Go, env.GOMAXPROCS, env.CPU, env.Commit)
	results := make(map[string]any, len(benches)+1)
	results[benchsuite.EnvKey] = env
	for _, bench := range benches {
		// Reset the heap between suite entries: the large-DAG tier
		// leaves tens of MB of garbage and a skewed GC pacer behind,
		// which otherwise bleeds into the next benchmark's numbers
		// (measured: the exec tier runs ~15% slower after it than in a
		// fresh process). Each entry should measure itself.
		runtime.GC()
		debug.FreeOSMemory()
		r := testing.Benchmark(bench.Fn)
		e := benchsuite.Record(r)
		results[bench.Name] = e
		fmt.Printf("%-34s %12.0f ns/op %12d B/op %9d allocs/op",
			bench.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		// ReportMetric extras (e.g. ep/s), in sorted unit order so the
		// log is stable across runs.
		units := make([]string, 0, len(e.Extra))
		for u := range e.Extra {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Printf(" %12.1f %s", e.Extra[u], u)
		}
		fmt.Println()
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

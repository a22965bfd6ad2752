// Command benchguard is the CI benchmark regression gate: it re-runs
// the governed benchmark suite (internal/benchsuite) and compares it
// against the committed baseline (BENCH_core.json), failing when any
// shared benchmark's allocs/op or bytes/op regress by more than
// their thresholds.
//
// Only benchmarks present in BOTH the baseline and the current suite
// are gated: a benchmark added to the suite before the baseline is
// regenerated is reported and skipped (new code must not fail the
// gate for existing), and a baseline entry for a since-removed
// benchmark is noted and ignored.
//
// Allocation counts and allocated bytes are deterministic, which
// makes them an honest regression signal on shared CI runners
// (bytes/op gets a looser default threshold since map growth
// granularity makes it coarser than allocs/op); wall-clock time is
// reported but only warned about, since runner noise would make a
// hard time gate flaky.
//
// Usage:
//
//	benchguard [-baseline BENCH_core.json] [-threshold 0.10] [-bytes-threshold 0.15] [-benchtime 1s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"reassign/internal/benchsuite"
)

// looseGate reports whether a benchmark's alloc/bytes thresholds are
// tripled: the loopback-TCP exec tiers run real goroutines over real
// sockets, so their counts wobble with scheduler interleaving (a
// heartbeat that lands mid-run, a flusher batch boundary) in a way
// the deterministic tiers' never do. Time is already warn-only.
func looseGate(name string) bool {
	return strings.HasPrefix(name, "BenchmarkExecThroughput/tcp-")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	testing.Init()
	baselinePath := flag.String("baseline", "BENCH_core.json", "baseline benchmark JSON")
	threshold := flag.Float64("threshold", 0.10, "maximum tolerated allocs/op regression (fraction)")
	bytesThreshold := flag.Float64("bytes-threshold", 0.15, "maximum tolerated bytes/op regression (fraction)")
	benchtime := flag.String("benchtime", "1s", "minimum run time per benchmark")
	flag.Parse()

	if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
		return err
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var baseline map[string]benchsuite.Entry
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	// The stamp is not a benchmark: report it beside this machine's so
	// the time columns below can be read, and gate nothing on it.
	delete(baseline, benchsuite.EnvKey)
	var stamps map[string]benchsuite.Env // benchmark entries decode to empty Envs
	if err := json.Unmarshal(data, &stamps); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	fmt.Printf("baseline env: %+v\ncurrent env:  %+v\n", stamps[benchsuite.EnvKey], benchsuite.CurrentEnv())

	suite := benchsuite.Suite()
	inSuite := make(map[string]bool, len(suite))
	gated := 0
	var failures []error
	for _, bench := range suite {
		inSuite[bench.Name] = true
		base, ok := baseline[bench.Name]
		if !ok {
			fmt.Printf("%s: new benchmark, not in baseline — skipping (regenerate %s to gate it)\n",
				bench.Name, *baselinePath)
			continue
		}
		gated++
		allocLimit, bytesLimit := *threshold, *bytesThreshold
		if looseGate(bench.Name) {
			allocLimit, bytesLimit = 3*allocLimit, 3*bytesLimit
		}
		r := testing.Benchmark(bench.Fn)
		fresh := benchsuite.Record(r)

		if base.AllocsPerOp <= 0 {
			// A zero-alloc baseline has no meaningful ratio: any fresh
			// allocation is a regression, none is a pass.
			fmt.Printf("%s: %d allocs/op (baseline 0), %d B/op, %.2f ms/op, %d iterations\n",
				bench.Name, fresh.AllocsPerOp, fresh.BytesPerOp, fresh.NsPerOp/1e6, fresh.Iterations)
			if fresh.AllocsPerOp > 0 {
				failures = append(failures, fmt.Errorf("%s: allocates (%d allocs/op) against a zero-alloc baseline",
					bench.Name, fresh.AllocsPerOp))
			}
			failures = gateBytes(failures, bench.Name, base, fresh, bytesLimit)
			continue
		}

		allocRatio := float64(fresh.AllocsPerOp)/float64(base.AllocsPerOp) - 1
		timeRatio := fresh.NsPerOp/base.NsPerOp - 1
		fmt.Printf("%s: %d allocs/op (baseline %d, %+.1f%%), %d B/op (baseline %d), %.2f ms/op (baseline %.2f, %+.1f%%), %d iterations\n",
			bench.Name, fresh.AllocsPerOp, base.AllocsPerOp, 100*allocRatio,
			fresh.BytesPerOp, base.BytesPerOp,
			fresh.NsPerOp/1e6, base.NsPerOp/1e6, 100*timeRatio, fresh.Iterations)

		if allocRatio > allocLimit {
			failures = append(failures, fmt.Errorf("%s: allocs/op regressed %.1f%% (limit %.0f%%): %d vs baseline %d",
				bench.Name, 100*allocRatio, 100*allocLimit, fresh.AllocsPerOp, base.AllocsPerOp))
		}
		failures = gateBytes(failures, bench.Name, base, fresh, bytesLimit)
		if timeRatio > 3**threshold {
			fmt.Printf("warning: %s time/op drifted %+.1f%% — not failing (runner noise), but worth a look\n",
				bench.Name, 100*timeRatio)
		}
	}
	for name := range baseline {
		if !inSuite[name] {
			fmt.Printf("%s: baseline entry has no suite benchmark — ignoring (stale baseline?)\n", name)
		}
	}
	if gated == 0 {
		return fmt.Errorf("no benchmark shared between the suite and %s; regenerate the baseline", *baselinePath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", f)
		}
		return fmt.Errorf("%d of %d gated benchmarks regressed", len(failures), gated)
	}
	fmt.Println("benchguard: OK")
	return nil
}

// gateBytes appends a failure when fresh bytes/op regress past the
// threshold. Like the alloc gate, a zero-byte baseline tolerates no
// fresh allocation at all.
func gateBytes(failures []error, name string, base, fresh benchsuite.Entry, threshold float64) []error {
	if base.BytesPerOp <= 0 {
		if fresh.BytesPerOp > 0 {
			failures = append(failures, fmt.Errorf("%s: allocates %d B/op against a zero-byte baseline",
				name, fresh.BytesPerOp))
		}
		return failures
	}
	ratio := float64(fresh.BytesPerOp)/float64(base.BytesPerOp) - 1
	if ratio > threshold {
		failures = append(failures, fmt.Errorf("%s: bytes/op regressed %.1f%% (limit %.0f%%): %d vs baseline %d",
			name, 100*ratio, 100*threshold, fresh.BytesPerOp, base.BytesPerOp))
	}
	return failures
}

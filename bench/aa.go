package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runAA runs the selected workloads' end-to-end pass twice on this
// binary and prints, per metric and workload, how far the two runs
// disagree beside the bound BENCHMARK.json commits to. A bound should
// be at least twice the widest disagreement seen; a timing metric that
// would need more than 0.10 gets a longer window, not a wider bound.
// The output is the markdown table kept in README.md.
func runAA(selected []workload, opts options, stdout, stderr io.Writer) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -aa: %v\n", err)
		return 1
	}
	opts.trace = false
	fmt.Fprintln(stdout, stamp(opts))
	fmt.Fprintln(stdout, "| workload | metric | run A | run B | disagreement | bound |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|")
	code := 0
	for _, w := range selected {
		var runs [2]*result
		for i := range runs {
			if runs[i], err = w.run(opts); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if runs[i].failed > 0 {
				fmt.Fprintf(stderr, "bench: %s: %d failed operations: %v\n", w.name, runs[i].failed, runs[i].failures)
				code = 1
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].metrics[d.name], runs[1].metrics[d.name]
			rel := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			mark := ""
			if rel > bounds[d.name] {
				mark, code = " **over**", 1
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %.6g | %.6g | %.4f%s | %.2f |\n",
				w.name, d.name, d.unit, a, b, rel, mark, bounds[d.name])
		}
		if runs[0].digest != runs[1].digest {
			fmt.Fprintf(stdout, "| %s | digest | %s | %s | **differs** | equal |\n", w.name, runs[0].digest, runs[1].digest)
			code = 1
		}
	}
	return code
}

// readBounds returns the end-to-end bounds from BENCHMARK.json, the
// one place they are written down.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

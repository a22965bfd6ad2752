// Command wfstat prints structural statistics of a workflow: per-level
// composition, critical path, width, data volumes — the numbers a
// scheduler developer wants before picking an algorithm.
//
// Usage:
//
//	wfstat -dax montage50.dax
//	wfstat -family cybershake -size 100 -seed 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"reassign/internal/dag"
	"reassign/internal/dax"
	"reassign/internal/metrics"
	"reassign/internal/randsrc"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "wfstat: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	daxPath := flag.String("dax", "", "workflow file, DAX XML or WfFormat JSON")
	family := flag.String("family", "montage", "synthetic family when no -dax is given")
	size := flag.Int("size", 50, "synthetic workflow size")
	seed := flag.Int64("seed", 1, "random seed for synthetic workflows")
	flag.Parse()

	var w *dag.Workflow
	var err error
	if *daxPath != "" {
		if strings.HasSuffix(*daxPath, ".json") {
			w, err = wfjson.ReadFile(*daxPath)
		} else {
			w, err = dax.ReadFile(*daxPath)
		}
		if err != nil {
			return err
		}
	} else {
		gen := trace.Named(*family)
		if gen == nil {
			return fmt.Errorf("unknown family %q (known: %v)", *family, trace.Families())
		}
		w = gen(rand.New(randsrc.New(*seed)), *size)
	}
	if err := w.Validate(); err != nil {
		return err
	}

	fmt.Printf("workflow: %s\n", w.Name)
	fmt.Printf("activations: %d   edges: %d   roots: %d   leaves: %d\n",
		w.Len(), w.Edges(), len(w.Roots()), len(w.Leaves()))

	depth, err := w.Depth()
	if err != nil {
		return err
	}
	width, err := w.Width()
	if err != nil {
		return err
	}
	_, cp, err := w.CriticalPath()
	if err != nil {
		return err
	}
	total := w.TotalRuntime()
	fmt.Printf("depth: %d   width: %d   total work: %.1fs   critical path: %.1fs   max speedup: %.2fx\n",
		depth, width, total, cp, total/cp)

	var inBytes, outBytes int64
	for _, a := range w.Activations() {
		inBytes += a.InputBytes()
		outBytes += a.OutputBytes()
	}
	fmt.Printf("data: %.1f MB consumed, %.1f MB produced\n\n",
		float64(inBytes)/1e6, float64(outBytes)/1e6)

	levels, err := w.Levels()
	if err != nil {
		return err
	}
	lt := metrics.NewTable("Levels", "level", "activations", "activities", "runtime sum (s)")
	for i, lv := range levels {
		acts := map[string]bool{}
		var sum float64
		for _, a := range lv {
			acts[a.Activity] = true
			sum += a.Runtime
		}
		names := make([]string, 0, len(acts))
		for n := range acts {
			names = append(names, n)
		}
		sort.Strings(names)
		lt.AddRowF(i, len(lv), strings.Join(names, ", "), sum)
	}
	fmt.Println(lt.String())

	at := metrics.NewTable("Activities", "activity", "count", "mean runtime (s)")
	counts := w.CountByActivity()
	sums := map[string]float64{}
	for _, a := range w.Activations() {
		sums[a.Activity] += a.Runtime
	}
	for _, name := range w.ActivityNames() {
		at.AddRowF(name, counts[name], sums[name]/float64(counts[name]))
	}
	fmt.Println(at.String())
	return nil
}

// Command mkdax generates synthetic Pegasus DAX workflow files shaped
// like the published Workflow Generator traces.
//
// Usage:
//
//	mkdax -family montage -size 50 -seed 1 -out montage50.dax
//	mkdax -family cybershake -size 100 -out -        # write to stdout
//	mkdax -list                                      # list families
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"reassign/internal/dax"
	"reassign/internal/randsrc"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

func main() {
	family := flag.String("family", "montage", "workflow family")
	size := flag.Int("size", 50, "approximate number of activations")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "-", "output path ('-' for stdout)")
	format := flag.String("format", "dax", "output format: dax (Pegasus XML) or wfjson (WfCommons JSON)")
	list := flag.Bool("list", false, "list supported families and exit")
	flag.Parse()

	if *list {
		for _, f := range trace.Families() {
			fmt.Println(f)
		}
		return
	}
	gen := trace.Named(*family)
	if gen == nil {
		fmt.Fprintf(os.Stderr, "mkdax: unknown family %q (try -list)\n", *family)
		os.Exit(2)
	}
	rng := rand.New(randsrc.New(*seed))
	var w = gen(rng, *size)
	if *family == "montage" && *size == 50 {
		// Exact 50-node composition used in the paper.
		w = trace.Montage50(rand.New(randsrc.New(*seed)))
	}
	if err := w.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mkdax: %v\n", err)
		os.Exit(1)
	}
	write := dax.Write
	writeFile := dax.WriteFile
	switch *format {
	case "dax":
	case "wfjson":
		write = wfjson.Write
		writeFile = wfjson.WriteFile
	default:
		fmt.Fprintf(os.Stderr, "mkdax: unknown format %q\n", *format)
		os.Exit(2)
	}
	if *out == "-" {
		if err := write(os.Stdout, w); err != nil {
			fmt.Fprintf(os.Stderr, "mkdax: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := writeFile(*out, w); err != nil {
		fmt.Fprintf(os.Stderr, "mkdax: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mkdax: wrote %s (%d activations, %d edges)\n", *out, w.Len(), w.Edges())
}

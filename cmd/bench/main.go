// Command bench regenerates the paper's tables and figures. Each
// experiment id corresponds to one artifact of the evaluation section
// (bench -list prints the index). Anything about speed is measured by
// the benchmark gate instead; see benchmark/README.md.
//
// Usage:
//
//	bench -list
//	bench -exp exp1
//	bench -exp fig1,fig2,exp7 -out results.txt
//	bench -exp all -scale 0.25
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"resinfer/internal/harness"
)

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		outPath = flag.String("out", "", "write results to this file as well as stdout")
		scale   = flag.Float64("scale", 1.0, "shrink dataset profiles by this factor (0,1]")
	)
	flag.Parse()
	if err := harness.SetScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, e := range harness.Registry() {
			fmt.Printf("%-6s  %-14s  %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}
	if *expFlag == "" {
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var exps []harness.Experiment
	if *expFlag == "all" {
		exps = harness.Registry()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		fmt.Fprintf(w, "### %s (%s): %s\n", e.ID, e.PaperRef, e.Title)
		start := time.Now()
		if err := e.Run(w); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}
}

// Command sww-bench regenerates every table and figure of the paper's
// evaluation and prints each as a paper-vs-measured comparison.
//
// Usage:
//
//	sww-bench [-only matrix|fig2|article|t1|steps|sizes|text|t2|
//	                 energy|carbon|traffic|cdn|video|storage|ablations|
//	                 h3|upscale|personalize|placement|chaos|overload|
//	                 abuse|fastpath|telemetry|edgetier|selfheal|
//	                 originha|capacity]
//	          [-quick]
//
// Without -only, all experiments run in this order; an unknown key
// exits 2 and lists the valid ones, and an experiment that fails or
// misses one of its acceptance bars makes the run exit 1. -quick trims
// the heavier sweeps for CI smoke runs.
//
// Each experiment's report lives beside it in internal/experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"sww/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment")
	quick := flag.Bool("quick", false, "trim heavy sweeps for smoke runs")
	flag.Parse()
	os.Exit(run(*only, *quick, os.Stdout, os.Stderr))
}

// run runs the experiment keyed only, or every experiment when only is
// empty, and returns the exit code.
func run(only string, quick bool, stdout, stderr io.Writer) int {
	var keys []string
	for _, e := range experiments.Experiments {
		keys = append(keys, e.Key)
	}
	if only != "" && !slices.Contains(keys, only) {
		fmt.Fprintf(stderr, "sww-bench: unknown experiment %q; -only takes one of: %s\n", only, strings.Join(keys, " "))
		return 2
	}
	code := 0
	for _, e := range experiments.Experiments {
		if only != "" && e.Key != only {
			continue
		}
		if err := e.Run(stdout, quick); err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", e.Key, err)
			code = 1
		}
	}
	return code
}

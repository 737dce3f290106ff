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
//	          [-quick] [-capacity-out FILE]
//
// Without -only, all experiments run in this order; an unknown key
// exits 2 and lists the valid ones, and an experiment that fails or
// misses one of its acceptance bars makes the run exit 1. -quick trims
// the heavier sweeps for CI smoke runs. -capacity-out writes the E27
// capacity curve as a benchmark-JSON artifact (the format
// sww-benchjson emits), so CI can archive it and gate goodput against
// a committed baseline.
//
// Each experiment's report lives beside it in internal/experiments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"sww/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment")
	quick := flag.Bool("quick", false, "trim heavy sweeps for smoke runs")
	capOut := flag.String("capacity-out", "", "write the E27 capacity curve as benchmark JSON to this file")
	flag.Parse()
	os.Exit(run(*only, *quick, *capOut, os.Stdout, os.Stderr))
}

// run runs the experiment keyed only, or every experiment when only is
// empty, and returns the exit code.
func run(only string, quick bool, capOut string, stdout, stderr io.Writer) int {
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
		res, err := e.Run(stdout, quick)
		if c, ok := res.(*experiments.CapacityResult); ok && err == nil && capOut != "" {
			if err = writeCapacityArtifact(capOut, c); err != nil {
				err = fmt.Errorf("writing %s: %w", capOut, err)
			} else {
				fmt.Fprintf(stdout, "capacity artifact written to %s\n", capOut)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", e.Key, err)
			code = 1
		}
	}
	return code
}

// writeCapacityArtifact renders the E27 result in the benchmark-JSON
// shape sww-benchjson emits, so the curve can be merged into a PR
// artifact and gated (goodput_x) against a committed baseline.
func writeCapacityArtifact(path string, res *experiments.CapacityResult) error {
	type benchResult struct {
		Name       string             `json:"name"`
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	doc := struct {
		Env     map[string]string `json:"env,omitempty"`
		Results []benchResult     `json:"results"`
	}{
		Env: map[string]string{"experiment": "E27-capacity"},
	}
	for _, r := range res.Rows {
		doc.Results = append(doc.Results, benchResult{
			Name:       fmt.Sprintf("capacity/mult=%.2f", r.Multiplier),
			Iterations: int64(r.Requests),
			Metrics: map[string]float64{
				"offered_rps":  r.OfferedRPS,
				"realized_rps": r.RealizedRPS,
				"goodput_rps":  r.GoodputRPS,
				"goodput_x":    r.GoodputX,
				"goodput_frac": r.GoodputFrac,
				"shed_rate":    r.ShedRate,
				"errors":       float64(r.Errors),
				"p50_ms":       float64(r.P50) / float64(time.Millisecond),
				"p95_ms":       float64(r.P95) / float64(time.Millisecond),
				"p99_ms":       float64(r.P99) / float64(time.Millisecond),
				"cache_hits":   float64(r.Stats.CacheHits),
			},
		})
	}
	knee := benchResult{
		Name: "capacity/knee",
		Metrics: map[string]float64{
			"knee_rps":           res.KneeRPS,
			"knee_rps_run2":      res.KneeRPS2,
			"predicted_knee_rps": res.PredictedKneeRPS,
			"gen_capacity_rps":   res.GenCapacityRPS,
			"incapable_share":    res.IncapableShare,
			"miss_share":         res.MissShare,
		},
	}
	if res.GenCapacityRPS > 0 {
		knee.Metrics["knee_x"] = res.KneeRPS / res.GenCapacityRPS
	}
	doc.Results = append(doc.Results, knee)
	if res.DiurnalPeakShed >= 0 {
		doc.Results = append(doc.Results, benchResult{
			Name: "capacity/diurnal",
			Metrics: map[string]float64{
				"peak_shed_rate":   res.DiurnalPeakShed,
				"trough_shed_rate": res.DiurnalTroughShed,
			},
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o666)
}

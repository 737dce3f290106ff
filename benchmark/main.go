// Command benchmark is the repository's tier benchmark: four closed-loop
// workloads over host-loopback TCP, each run in a fresh process, with a
// layer ledger read from outside the program (public snapshots, the
// server's existing spans, and isolation probes). See README.md.
//
//	go run ./benchmark -workload warm_prompt -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload edge_churn -seed 1 -seconds 20 -trace 1
//	go run ./benchmark -repeat -runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one run's settings; the CLI and the tests both fill it.
type config struct {
	workload   string
	seed       int64
	window     time.Duration // measured window
	slice      time.Duration // the window is cut into slices of about this length
	warm       time.Duration // closed-loop warm-up before the window
	setups     int           // least set-ups timed per run; setup_s is their median
	setupFloor time.Duration // a cheap set-up is repeated until this much of it has been timed
	trace      bool
	outDir     string // where a trace run writes its span dump
}

// A metric is one named measurement with its unit and the number of
// samples behind it (slices for medians of slices, operations for
// probes, 1 for a plain delta).
type metric struct {
	Name    string  `json:"-"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is what one run reports.
type result struct {
	workload     string
	seed         int64
	trace        bool
	attempted    int64
	failed       int64
	firstFailure string // path and reason of the first failed fetch
	guard        error  // the workload did not do what it is for
	metrics      []metric
}

func (r *result) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

func (r *result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// env is the one environment block every output carries.
type env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
}

func currentEnv() env {
	e := env{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     "unknown",
		Link:       "loopback",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// print writes the run in three parts: one line per metric (name,
// value, unit, sample count), a summary object carrying the env block
// and "claim": null, and — last, for the driver — the result object.
func (r *result) print(w io.Writer) {
	kind := "end_to_end"
	if r.trace {
		kind = "per_layer"
	}
	fmt.Fprintf(w, "# %s seed=%d %s\n", r.workload, r.seed, kind)
	byName := map[string]metric{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		byName[m.Name] = m
	}
	if r.firstFailure != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.firstFailure)
	}
	if r.guard != nil {
		fmt.Fprintf(w, "validity guard: %v\n", r.guard)
	}
	summary, _ := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Kind     string   `json:"kind"`
		Env      env      `json:"env"`
		Claim    *float64 `json:"claim"`
	}{r.workload, r.seed, kind, currentEnv(), nil})
	fmt.Fprintf(w, "%s\n", summary)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.guard == nil, r.attempted, r.failed, byName})
	fmt.Fprintf(w, "%s\n", line)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of "+workloadNames())
		seed     = fs.Int64("seed", 1, "workload seed: fixes the request sequence and the invalidation targets")
		seconds  = fs.Float64("seconds", 20, "length of the measured window")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span dump instead of the end-to-end metrics")
		repeat   = fs.Bool("repeat", false, "run two full sets of every workload back to back and compare them against the bounds in BENCHMARK.json")
		runs     = fs.Int("runs", 3, "with -repeat: runs (seeds) per workload per set")
		out      = fs.String("out", "benchmark/out", "directory for the trace run's span dump")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat {
		return repeatSets(*runs, *seconds, stdout, stderr)
	}
	if specByName(*workload) == nil {
		fmt.Fprintf(stderr, "benchmark: -workload must be one of %s\n", workloadNames())
		return 2
	}
	cfg := config{
		workload:   *workload,
		seed:       *seed,
		window:     time.Duration(*seconds * float64(time.Second)),
		slice:      500 * time.Millisecond,
		warm:       3 * time.Second,
		setups:     3,
		setupFloor: 3 * time.Second,
		trace:      *trace != 0,
		outDir:     *out,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res.print(stdout)
	if res.guard != nil {
		return 1
	}
	return 0
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

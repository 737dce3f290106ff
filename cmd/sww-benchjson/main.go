// Command sww-benchjson converts `go test -bench` text output on
// stdin into a JSON document on stdout, so CI can archive benchmark
// runs (BENCH_PR5.json) as machine-readable artifacts.
//
// Usage:
//
//	go test -bench 'SynthKernel' -benchtime 1x -benchmem ./... | sww-benchjson > BENCH_PR5.json
//	sww-benchjson -telemetry http://127.0.0.1:8421/statusz < bench.txt > BENCH_PR5.json
//
// -telemetry merges a running server's ops listener snapshot (the
// /statusz JSON of -ops-addr, fetched from a http:// URL or read from
// a file) into the document: each histogram becomes one result named
// telemetry/<metric> with count and p50/p95/p99 milliseconds, and each
// counter and gauge becomes a single-value row, so a load run's
// server-side percentiles and resilience counters (failovers, fence
// refusals, retry-budget exhaustion) land next to the micro-benchmarks
// in one artifact.
//
// Each benchmark result line has the shape
//
//	BenchmarkSynthKernel/1024-8   30   36521342 ns/op   4211 B/op   12 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs. Units
// are kept verbatim as metric keys, so custom b.ReportMetric units
// survive. Non-benchmark lines (pkg headers, PASS, ok) are skipped;
// `goos`/`goarch`/`pkg`/`cpu` headers are captured as environment.
//
// -gate compares the parsed results against a committed baseline
// document and exits non-zero when any benchmark present in both
// regresses its allocs/op beyond -gate-tolerance (default 10%).
// Gating is on allocations, not nanoseconds: allocs/op is stable
// across machines and load, so the gate works on shared CI runners
// where timing thresholds would flake. The GOMAXPROCS suffix
// (`Benchmark...-8`) is stripped before matching, for the same
// reason. A baseline of 0 allocs/op admits no regression at all —
// 10% of zero is zero, which is exactly right for the zero-allocation
// wire benchmarks.
//
//	go test -bench 'FramerWrite|HPACKDecode|WarmServeWire' -benchtime 10000x -benchmem ./... \
//	  | sww-benchjson -gate BENCH_PR24.json > BENCH_PR24_ci.json
//
// -capacity merges an E27 capacity-curve artifact (the JSON
// `sww-bench -capacity-out` writes) into the document, and
// -gate-goodput compares it against a committed baseline: every
// capacity row shared with the baseline must keep its goodput_frac
// (the admitted fraction of offered requests) at or above
// -goodput-min (default 0.9) of the stored value. goodput_frac is
// gated for the same reason allocs/op is: it is a ratio of counts,
// stable across machines, where absolute RPS thresholds would flake
// on shared CI runners.
//
//	sww-benchjson -capacity capacity.json -gate-goodput BENCH_PR10.json \
//	  < /dev/null > BENCH_PR10_ci.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sww/internal/telemetry"
)

type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchDoc struct {
	Env     map[string]string `json:"env,omitempty"`
	Results []benchResult     `json:"results"`
}

func main() {
	telSource := flag.String("telemetry", "", "ops /statusz source (http:// URL or file path) whose histograms are merged into the document")
	gateFile := flag.String("gate", "", "baseline benchmark JSON; exit non-zero when a shared benchmark's allocs/op regresses beyond -gate-tolerance")
	gateTol := flag.Float64("gate-tolerance", 0.10, "allowed fractional allocs/op regression in -gate mode")
	capFile := flag.String("capacity", "", "E27 capacity artifact (from sww-bench -capacity-out) to merge into the document")
	gateGoodput := flag.String("gate-goodput", "", "baseline benchmark JSON; exit non-zero when a shared capacity row's goodput_frac falls below -goodput-min of the stored value")
	goodputMin := flag.Float64("goodput-min", 0.90, "minimum fraction of the baseline goodput_frac a capacity row must keep in -gate-goodput mode")
	flag.Parse()
	doc := benchDoc{Env: map[string]string{}, Results: []benchResult{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Env[key] = v
			}
		}
		if r, ok := parseBenchLine(line); ok {
			doc.Results = append(doc.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "sww-benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if *telSource != "" {
		results, err := telemetryResults(*telSource)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sww-benchjson: telemetry %s: %v\n", *telSource, err)
			os.Exit(1)
		}
		doc.Results = append(doc.Results, results...)
	}
	if *capFile != "" {
		results, err := capacityResults(*capFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sww-benchjson: capacity %s: %v\n", *capFile, err)
			os.Exit(1)
		}
		doc.Results = append(doc.Results, results...)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "sww-benchjson: %v\n", err)
		os.Exit(1)
	}
	if *gateFile != "" {
		if err := gateAllocs(doc, *gateFile, *gateTol); err != nil {
			fmt.Fprintf(os.Stderr, "sww-benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if *gateGoodput != "" {
		if err := gateGoodputFrac(doc, *gateGoodput, *goodputMin); err != nil {
			fmt.Fprintf(os.Stderr, "sww-benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}

// capacityResults reads an E27 capacity artifact — already in the
// benchmark-JSON shape — and returns its rows for merging.
func capacityResults(path string) ([]benchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("no results in %s", path)
	}
	return doc.Results, nil
}

// gateGoodputFrac fails when the request-weighted mean goodput_frac
// over the capacity rows shared between doc and the baseline file
// drops below min × the baseline's weighted mean. Weighting by
// request count (the row's iterations) and aggregating across rows
// keeps the gate robust on small quick-mode samples — a single
// low-traffic row shedding a few extra requests is noise, a curve
// whose success fraction collapses is a regression. Per-row fractions
// are still printed for diagnosis. The knee and diurnal rows carry no
// goodput_frac and pass through unchecked.
func gateGoodputFrac(doc benchDoc, baselinePath string, min float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("goodput gate baseline: %v", err)
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("goodput gate baseline %s: %v", baselinePath, err)
	}
	type frac struct {
		v float64
		w float64
	}
	baseFrac := map[string]frac{}
	for _, r := range base.Results {
		if v, ok := r.Metrics["goodput_frac"]; ok {
			w := float64(r.Iterations)
			if w <= 0 {
				w = 1
			}
			baseFrac[benchKey(r.Name)] = frac{v: v, w: w}
		}
	}
	compared := 0
	var gotSum, gotW, wantSum, wantW float64
	for _, r := range doc.Results {
		got, ok := r.Metrics["goodput_frac"]
		if !ok {
			continue
		}
		want, ok := baseFrac[benchKey(r.Name)]
		if !ok {
			continue
		}
		compared++
		w := float64(r.Iterations)
		if w <= 0 {
			w = 1
		}
		gotSum += got * w
		gotW += w
		wantSum += want.v * want.w
		wantW += want.w
		fmt.Fprintf(os.Stderr, "sww-benchjson: goodput gate row %s: goodput_frac %.3f (baseline %.3f)\n",
			benchKey(r.Name), got, want.v)
	}
	if compared == 0 {
		return fmt.Errorf("goodput gate: no capacity rows shared with baseline %s", baselinePath)
	}
	gotMean, wantMean := gotSum/gotW, wantSum/wantW
	limit := wantMean * min
	if gotMean < limit {
		return fmt.Errorf("goodput gate: weighted goodput_frac %.3f below %.0f%% of baseline %.3f (floor %.3f) over %d rows",
			gotMean, min*100, wantMean, limit, compared)
	}
	fmt.Fprintf(os.Stderr, "sww-benchjson: goodput gate passed: weighted goodput_frac %.3f vs baseline %.3f (floor %.3f) over %d rows\n",
		gotMean, wantMean, limit, compared)
	return nil
}

// benchKey normalizes a benchmark name for cross-run matching by
// stripping the GOMAXPROCS suffix go test appends (`Name-8`).
func benchKey(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// gateAllocs fails when any benchmark shared between doc and the
// baseline file regresses allocs/op beyond tol.
func gateAllocs(doc benchDoc, baselinePath string, tol float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("gate baseline: %v", err)
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("gate baseline %s: %v", baselinePath, err)
	}
	baseAllocs := map[string]float64{}
	for _, r := range base.Results {
		if v, ok := r.Metrics["allocs/op"]; ok {
			baseAllocs[benchKey(r.Name)] = v
		}
	}
	compared, failures := 0, 0
	for _, r := range doc.Results {
		got, ok := r.Metrics["allocs/op"]
		if !ok {
			continue
		}
		want, ok := baseAllocs[benchKey(r.Name)]
		if !ok {
			continue
		}
		compared++
		limit := want * (1 + tol)
		if got > limit {
			failures++
			fmt.Fprintf(os.Stderr, "sww-benchjson: gate FAIL %s: %.0f allocs/op, baseline %.0f (limit %.1f)\n",
				benchKey(r.Name), got, want, limit)
		} else {
			fmt.Fprintf(os.Stderr, "sww-benchjson: gate ok %s: %.0f allocs/op (baseline %.0f)\n",
				benchKey(r.Name), got, want)
		}
	}
	if compared == 0 {
		return fmt.Errorf("gate: no benchmarks shared with baseline %s", baselinePath)
	}
	if failures > 0 {
		return fmt.Errorf("gate: %d of %d benchmarks regressed allocs/op beyond %.0f%%", failures, compared, tol*100)
	}
	fmt.Fprintf(os.Stderr, "sww-benchjson: gate passed: %d benchmarks within %.0f%% of baseline\n", compared, tol*100)
	return nil
}

// parseBenchLine parses one `Benchmark... iters value unit ...` line.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return benchResult{}, false
	}
	return r, true
}

// telemetryResults reads a /statusz snapshot and renders each latency
// histogram as one result row.
func telemetryResults(source string) ([]benchResult, error) {
	var raw []byte
	var err error
	if strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://") {
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get(source)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("status %s", resp.Status)
		}
		raw, err = io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
	} else if raw, err = os.ReadFile(source); err != nil {
		return nil, err
	}
	// /statusz wraps the registry snapshot in {"metrics": ...}; accept
	// a bare snapshot too so a saved registry dump also works.
	var statusz struct {
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &statusz); err != nil {
		return nil, err
	}
	snap := statusz.Metrics
	if len(snap.Histograms) == 0 && len(snap.Counters) == 0 && len(snap.Gauges) == 0 {
		var bare telemetry.Snapshot
		if err := json.Unmarshal(raw, &bare); err == nil {
			snap = bare
		}
	}
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	results := make([]benchResult, 0, len(names)+len(snap.Counters)+len(snap.Gauges))
	for _, name := range names {
		h := snap.Histograms[name]
		results = append(results, benchResult{
			Name:       "telemetry/" + name,
			Iterations: int64(h.Count),
			Metrics: map[string]float64{
				"count":       float64(h.Count),
				"sum_seconds": h.SumSeconds,
				"p50_ms":      h.P50ms,
				"p95_ms":      h.P95ms,
				"p99_ms":      h.P99ms,
			},
		})
	}
	// Counters and gauges ride along as single-value rows so resilience
	// counters (failovers, fence refusals, retry-budget exhaustion, ...)
	// are comparable across PR artifacts like the latency families are.
	names = names[:0]
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		results = append(results, benchResult{
			Name:    "telemetry/" + name,
			Metrics: map[string]float64{"value": float64(snap.Counters[name])},
		})
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		results = append(results, benchResult{
			Name:    "telemetry/" + name,
			Metrics: map[string]float64{"value": snap.Gauges[name]},
		})
	}
	return results, nil
}

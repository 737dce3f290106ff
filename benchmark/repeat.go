package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// declared is the part of BENCHMARK.json the repeat check reads.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runChild runs one workload run in a fresh process of this binary and
// returns the metrics of its result line.
func runChild(workload string, seed int64, seconds float64, stderr io.Writer) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = sc.Text()
	}
	var line struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect", workload, seed)
	}
	vals := map[string]float64{}
	for name, m := range line.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method (Python's statistics.quantiles(v, n=4)).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// repeatSets runs every workload runs times (seeds 1..runs) in each of
// two sets, back to back, and compares the sets the way the driver
// does: per workload and end-to-end metric, the spread of each set
// (interquartile range over median; setup_s exempt) and the drift of
// the second median against the first must both stay within the bound
// declared in BENCHMARK.json.
func repeatSets(runs int, seconds float64, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -repeat runs from the repository root: %v\n", err)
		return 2
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintf(stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 2
	}
	env, _ := json.Marshal(currentEnv())
	fmt.Fprintf(stdout, "env %s\nruns per set %d, seconds %g\n", env, runs, seconds)
	fmt.Fprintf(stdout, "%-17s %-21s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median_1", "median_2", "drift", "spread_1", "spread_2", "bound")
	breaches := 0
	for _, sp := range specs {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for seed := int64(1); seed <= int64(runs); seed++ {
				vals, err := runChild(sp.name, seed, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
				for name, v := range vals {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		for _, m := range decl.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			drift := ratio(b2-a2, a2) // positive = second set reads higher
			if m.Better == "higher" {
				drift = -drift
			}
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			var flags []string
			if drift > m.Bound {
				flags = append(flags, "DRIFT")
			}
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				flags = append(flags, "SPREAD")
			}
			breaches += len(flags)
			fmt.Fprintf(stdout, "%-17s %-21s %12.4f %12.4f %+8.4f %8.4f %8.4f %6.2f %s\n",
				sp.name, m.Name, a2, b2, drift, spreadA, spreadB, m.Bound, strings.Join(flags, " "))
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end metric of every workload repeats within its bound")
	return 0
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// declaredMetrics reads the metric lists of ../BENCHMARK.json.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for _, w := range decl.Workloads {
		if specByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json declares unknown workload %q", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func testConfig(workload string, trace bool, dir string) config {
	return config{
		workload: workload,
		seed:     7,
		window:   testScale * 200 * time.Millisecond,
		slice:    testScale * 40 * time.Millisecond,
		warm:     testScale * 50 * time.Millisecond,
		setups:   1,
		trace:    trace,
		outDir:   dir,
	}
}

// waitGoroutines waits for the goroutine count to come back down to
// want: connection teardown finishes a moment after close returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before it\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Every workload emits exactly the declared metrics, finite and with
// the declared unit, on the end-to-end run and on the trace run; no
// fetch fails, the validity guard passes, and the tier is gone after.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	dir := t.TempDir()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", sp.name, trace), func(t *testing.T) {
				before := runtime.NumGoroutine()
				res, err := run(testConfig(sp.name, trace, dir))
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 || res.failed != 0 || res.guard != nil {
					t.Errorf("attempted %d, failed %d (%s), guard %v", res.attempted, res.failed, res.firstFailure, res.guard)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				got := map[string]bool{}
				for _, m := range res.metrics {
					if got[m.Name] {
						t.Errorf("%s emitted twice", m.Name)
					}
					got[m.Name] = true
					if unit, ok := want[m.Name]; !ok {
						t.Errorf("%s emitted but not declared", m.Name)
					} else if unit != m.Unit {
						t.Errorf("%s has unit %q, declared %q", m.Name, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", m.Name, m.Value)
					}
				}
				for name := range want {
					if !got[name] {
						t.Errorf("%s declared but not emitted", name)
					}
				}
				if trace {
					checkDump(t, filepath.Join(dir, fmt.Sprintf("trace_%s_seed7.json", sp.name)))
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// checkDump reads a trace run's span dump back: names/columns/spans,
// one client.fetch span per request with id = request number, and a
// probe root with children.
func checkDump(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Names   []string
		Columns []string
		Spans   [][]int64
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(dump.Columns) != 6 || len(dump.Spans) == 0 {
		t.Fatalf("%s: %d columns, %d spans", path, len(dump.Columns), len(dump.Spans))
	}
	fetches, probes := 0, 0
	for _, s := range dump.Spans {
		switch dump.Names[s[2]] {
		case "client.fetch":
			fetches++
			if s[0] != int64(fetches) || s[3] != s[0] {
				t.Fatalf("%s: client.fetch span %d has id %d, request %d", path, fetches, s[0], s[3])
			}
		case "probe":
			probes++
		}
	}
	if fetches == 0 || probes != 1 {
		t.Errorf("%s: %d client.fetch spans, %d probe roots", path, fetches, probes)
	}
}

// The seed, and nothing else, fixes a client's request sequence.
func TestSeedFixesSequence(t *testing.T) {
	draw := func(sp *spec, seed int64, c int) []int {
		src := newPageSource(sp, seed, c, 2)
		out := make([]int, 500)
		for i := range out {
			out[i] = src.next()
		}
		return out
	}
	same := slices.Equal[[]int]
	for i := range specs {
		sp := &specs[i]
		if !same(draw(sp, 3, 0), draw(sp, 3, 0)) {
			t.Errorf("%s: the same seed gave two sequences", sp.name)
		}
		if same(draw(sp, 3, 0), draw(sp, 4, 0)) {
			t.Errorf("%s: seeds 3 and 4 gave the same sequence", sp.name)
		}
		if same(draw(sp, 3, 0), draw(sp, 3, 1)) {
			t.Errorf("%s: clients 0 and 1 got the same sequence", sp.name)
		}
	}
	// The cold walk keeps the clients on disjoint pages.
	cold := specByName("cold_traditional")
	seen := map[int]bool{}
	for _, p := range draw(cold, 3, 0) {
		seen[p] = true
	}
	for _, p := range draw(cold, 3, 1) {
		if seen[p] {
			t.Fatalf("cold_traditional: clients 0 and 1 both fetch page %d", p)
		}
	}
}

// The checker catches a reply whose body, mode or status is off.
func TestCheckerCatchesCorruption(t *testing.T) {
	before := runtime.NumGoroutine()
	tier, err := boot(specByName("warm_prompt"), 1)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := tier.clients[0].fetch(context.Background(), 5)
	if why := tier.check(5, reply, err); why != "" {
		t.Fatalf("a clean reply was refused: %s", why)
	}
	if why := tier.check(6, reply, nil); why == "" {
		t.Error("page 5's body passed as page 6")
	}
	body := append([]byte(nil), reply.Body...)
	body[len(body)/2] ^= 1
	corrupt := *reply
	corrupt.Body = body
	if why := tier.check(5, &corrupt, nil); why == "" {
		t.Error("a body with one flipped bit passed")
	}
	wrongMode := *reply
	wrongMode.Mode = "traditional"
	if why := tier.check(5, &wrongMode, nil); why == "" {
		t.Error("a traditional reply passed on a prompt workload")
	}
	wrongStatus := *reply
	wrongStatus.Status = 503
	if why := tier.check(5, &wrongStatus, nil); why == "" {
		t.Error("a 503 passed")
	}
	tier.close()
	waitGoroutines(t, before)
}

// Python's statistics.quantiles(v, n=4) on a known input.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

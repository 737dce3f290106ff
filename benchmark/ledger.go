package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"sww/internal/hpack"
	"sww/internal/telemetry"
)

// traceRing is how many of the server's most recent request traces the
// trace run retains; stage medians come from them.
const traceRing = 1 << 15

// stages are the server's existing span stages, in request order.
var stages = []string{"lookup", "cache", "admission", "generate", "serve"}

// A ledger is one trace run: an untraced window, a traced window with
// the server's own spans switched on, then the isolation probes. All
// three sources are outside the program: deltas of public snapshots,
// Tracer.Snapshot, and timed calls of public functions.
type ledger struct {
	t   *topology
	cfg config
	res *result

	probeNames []string
	probeSpans []span

	// What the raw h2 client captured for the codec and html probes.
	respFields []hpack.HeaderField
	body       []byte
}

func (t *topology) ledger(cfg config, res *result) error {
	lg := &ledger{t: t, cfg: cfg, res: res}
	span := cfg.window / 3

	plain := t.load(cfg.warm/3, span, cfg.slice)
	if err := t.drain(); err != nil {
		return err
	}
	res.account(t, plain)

	t.tel = &telemetry.Set{
		Registry: telemetry.NewRegistry(),
		Traces:   telemetry.NewTracer(traceRing),
		Events:   telemetry.NewEventLog(512),
	}
	t.srv.EnableTelemetry(t.tel)
	traced := t.load(0, span, cfg.slice)
	res.guard = t.drain()
	res.account(t, traced)
	goroutines := runtime.NumGoroutine()
	traces := t.tel.Traces.Snapshot()
	t.srv.EnableTelemetry(nil)

	d := traced.c1.sub(traced.c0)
	if res.guard == nil {
		res.guard = t.validate(d, traced.fetches())
	}
	if err := lg.probes(span / 16); err != nil {
		return err
	}
	res.add("core.client_overhead_us", "us", plain.p50()-res.value("http2.roundtrip_us"), len(plain.samples))

	// core: stage medians from the server's spans.
	var requests []time.Duration
	byStage := map[string][]time.Duration{}
	for _, tr := range traces {
		if !tr.Done || tr.Start.Before(traced.first().at) {
			continue
		}
		requests = append(requests, tr.Total)
		for _, sp := range tr.Spans {
			if sp.Dur > 0 {
				byStage[sp.Stage] = append(byStage[sp.Stage], sp.Dur)
			}
		}
	}
	for _, st := range stages {
		slices.Sort(byStage[st])
		res.add("core."+st+"_us", "us", quantile(byStage[st], 0.5), len(byStage[st]))
	}
	slices.Sort(requests)
	res.add("core.request_us", "us", quantile(requests, 0.5), len(requests))

	// Counter deltas over the traced window.
	for _, name := range []string{
		"core.outcome_prompt", "core.outcome_traditional", "core.outcome_cached", "core.outcome_shed", "core.outcome_error",
		"overload.gen_runs", "overload.coalesced", "overload.cache_hits", "overload.cache_evictions",
		"overload.admit_rejects", "overload.queue_timeouts", "overload.shed_503",
		"cdn.edge_requests", "cdn.edge_misses", "cdn.peer_fills", "cdn.stale_serves", "cdn.upstream_errors",
		"cdn.client_failovers", "cdn.inval_issued", "cdn.inval_applied", "cdn.push_applied", "cdn.push_gaps", "cdn.poll_resets",
		"telemetry.trace_count", "runtime.gc_cycles",
	} {
		res.add(name, "count", d[name], 1)
	}
	res.add("cdn.edge_hit_ratio", "ratio", ratio(d["cdn.edge_hits"], d["cdn.edge_requests"]), int(d["cdn.edge_requests"]))
	// Behind an edge every request the origin's core serves is a pull.
	pulls := 0.0
	if t.sp.edges > 0 {
		pulls = d["core.outcome_prompt"]
	}
	res.add("cdn.origin_pulls", "count", pulls, 1)
	conv := t.convergeWithin(traced.first().at, traced.last().at)
	res.add("cdn.converge_p50_us", "us", quantile(conv, 0.5), len(conv))
	res.add("cdn.converge_p99_us", "us", quantile(conv, 0.99), len(conv))
	art := t.srv.ArtifactCacheStats()
	res.add("genai.artifact_hit_ratio", "ratio", ratio(d["genai.artifact_hits"], d["genai.artifact_hits"]+d["genai.artifact_misses"]), 1)
	res.add("genai.artifact_bytes", "B", float64(art.Bytes), 1)

	secs := traced.last().at.Sub(traced.first().at).Seconds()
	res.add("runtime.mutex_wait_us_per_fetch", "us", ratio((traced.last().mutexWait-traced.first().mutexWait)*1e6, float64(traced.fetches())), 1)
	res.add("runtime.gc_pause_us_per_s", "us/s", d["runtime.gc_pause_us"]/secs, 1)
	res.add("runtime.goroutines", "count", float64(goroutines), 1)
	res.add("telemetry.overhead_frac", "ratio", ratio(traced.p50(), plain.p50())-1, len(plain.samples))
	res.add("bench.fetch_p50_us", "us", plain.p50(), len(plain.samples))
	p99, n := plain.p99()
	res.add("bench.fetch_p99_us", "us", p99, n)

	// bench.explained_frac: the blocking path of one fetch, priced from
	// the probes and spans above, over the untraced fetch_p50_us. One
	// loopback round trip; the client encodes and writes the request,
	// reads and decodes the response; the server reads and decodes the
	// request; and the server's handler — core's request span where the
	// front is a core.Server, else (an edge emits no spans) the calls
	// Edge.serve is known to make on a hit.
	us := func(name string) float64 { return res.value(name) / 1e3 }
	codec := us("hpack.encode_ns") + us("http2.frame_write_ns") + 2*us("http2.frame_read_ns") + 2*us("hpack.decode_ns")
	handler := res.value("core.request_us")
	if t.sp.edges > 0 {
		handler = 2*us("cdn.ring_lookup_ns") + us("overload.lru_get_ns") + us("hpack.encode_ns") + us("http2.frame_write_ns")
	}
	res.add("bench.explained_frac", "ratio", ratio(res.value("net.loopback_rtt_us")+codec+handler, plain.p50()), 1)

	sort.Slice(res.metrics, func(i, j int) bool { return res.metrics[i].Name < res.metrics[j].Name })
	return lg.dump(traced, traces)
}

// dump writes the run's spans in the names/columns/spans shape: one
// client.fetch span per request of the traced window (id = request
// number, in order of start), the server's retained request traces and
// their stage spans as children of the fetch that caused them, and the
// probe spans under one probe root.
func (lg *ledger) dump(traced *window, traces []telemetry.TraceSnapshot) error {
	t := lg.t
	type numbered struct {
		fetchSpan
		client int
		id     int
	}
	var fetches []numbered
	perClient := make([][]int, len(t.clients)) // indices into fetches, by start
	for ci, c := range t.clients {
		c.rec.each(func(s fetchSpan) { fetches = append(fetches, numbered{fetchSpan: s, client: ci}) })
	}
	sort.SliceStable(fetches, func(i, j int) bool { return fetches[i].start.Before(fetches[j].start) })
	for i := range fetches {
		fetches[i].id = i + 1
		perClient[fetches[i].client] = append(perClient[fetches[i].client], i)
	}
	// causeOf finds the fetch in flight on some client at instant at for
	// path: a client has one request outstanding, so per connection the
	// server's traces attach in order.
	causeOf := func(at time.Time, path string) int {
		for _, idx := range perClient {
			k := sort.Search(len(idx), func(k int) bool { return fetches[idx[k]].start.After(at) }) - 1
			if k < 0 {
				continue
			}
			f := fetches[idx[k]]
			if !at.After(f.start.Add(f.dur)) && t.paths[f.page] == path {
				return f.id
			}
		}
		return 0
	}

	if err := os.MkdirAll(lg.cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	name := filepath.Join(lg.cfg.outDir, fmt.Sprintf("trace_%s_seed%d.json", t.sp.name, lg.cfg.seed))
	file, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	defer file.Close()
	w := bufio.NewWriter(file)

	names := append([]string{"client.fetch", "server.request", "probe"}, stages...)
	names = append(names, lg.probeNames...)
	nameIdx := map[string]int{}
	for i, n := range names {
		nameIdx[n] = i
	}
	head, _ := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Env      env      `json:"env"`
		Names    []string `json:"names"`
		Columns  []string `json:"columns"`
	}{t.sp.name, lg.cfg.seed, currentEnv(), names, []string{"id", "parent", "name", "request", "start_ns", "dur_ns"}})
	fmt.Fprintf(w, "%s,\"spans\":[\n", head[:len(head)-1])

	epoch := traced.first().at
	nextID := len(fetches)
	first := true
	row := func(id, parent int, name string, request int, start time.Time, dur time.Duration) {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]", id, parent, nameIdx[name], request, start.Sub(epoch).Nanoseconds(), dur.Nanoseconds())
	}
	for _, f := range fetches {
		row(f.id, 0, "client.fetch", f.id, f.start, f.dur)
	}
	for _, tr := range traces {
		if !tr.Done || tr.Start.Before(epoch) {
			continue
		}
		cause := causeOf(tr.Start, tr.Path)
		nextID++
		reqID := nextID
		row(reqID, cause, "server.request", cause, tr.Start, tr.Total)
		for _, sp := range tr.Spans {
			if _, known := nameIdx[sp.Stage]; known && sp.Dur > 0 {
				nextID++
				row(nextID, reqID, sp.Stage, cause, tr.Start.Add(sp.Start), sp.Dur)
			}
		}
	}
	if len(lg.probeSpans) > 0 {
		nextID++
		root := nextID
		last := lg.probeSpans[len(lg.probeSpans)-1]
		row(root, 0, "probe", 0, lg.probeSpans[0].start, last.start.Add(last.dur).Sub(lg.probeSpans[0].start))
		for i, s := range lg.probeSpans {
			nextID++
			row(nextID, root, lg.probeNames[i], 0, s.start, s.dur)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	return file.Close()
}

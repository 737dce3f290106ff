package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/html"
	"sww/internal/overload"
	"sww/internal/telemetry"
)

// TelemetryOutcomeRow is one outcome label of E22: how many requests
// ended there and the latency percentiles the ops registry derived
// for them.
type TelemetryOutcomeRow struct {
	Outcome  string  `json:"outcome"`
	Requests uint64  `json:"requests"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
}

// TelemetryResult is E22: a telemetry-enabled server driven through
// every rung of the shed ladder, reported entirely from the ops
// surface — the same registry, trace ring and event log that
// -ops-addr exposes. The cross-check invariant: the per-outcome
// request counters must sum to the number of finished traces.
type TelemetryResult struct {
	Rows []TelemetryOutcomeRow `json:"rows"`

	TracesFinished int    `json:"traces_finished"`
	TracesTotal    uint64 `json:"traces_total"`
	EventsTotal    uint64 `json:"events_total"`

	// CountersMatchTraces is the invariant above.
	CountersMatchTraces bool `json:"counters_match_traces"`

	// Client-side latency over the paced fetch loops, measured from
	// each request's intended slot on the pacing schedule
	// (telemetry.ScheduleClock). The loops are sequential, so any
	// fetch overrunning its slot delays the next send; timing from the
	// actual send would silently forgive that backlog (coordinated
	// omission), this charges it to the requests that waited.
	ClientSchedP50ms float64 `json:"client_sched_p50_ms"`
	ClientSchedP99ms float64 `json:"client_sched_p99_ms"`
}

// telemetryPage builds a page with one generatable image; withOriginal
// also stores a pre-rendered form (the rung-3 precondition).
func telemetryPage(path, name string, withOriginal bool) (*core.Page, error) {
	gc := core.GeneratedContent{
		Type: core.ContentImage,
		Meta: core.Metadata{
			Prompt: "telemetry test pattern " + name + ", flat colors",
			Name:   name,
			Width:  64, Height: 64,
		},
	}
	div, err := gc.Div()
	if err != nil {
		return nil, err
	}
	doc := html.Parse(`<html><body></body></html>`)
	doc.ByTag("body")[0].AppendChild(div)
	p := &core.Page{Path: path, Doc: doc}
	if withOriginal {
		// Originals are matched by name at /original/<name>.
		p.Originals = []core.Asset{{Path: "/original/" + name, ContentType: "image/jpeg", Data: []byte("jpegbytes")}}
	}
	return p, nil
}

// TelemetrySweep runs E22: fetch through prompt, traditional, cached,
// policy-flip and shed decisions against a telemetry-enabled server,
// then read everything back from the ops registry. quick trims the
// per-outcome repeat count.
func TelemetrySweep(quick bool) (*TelemetryResult, error) {
	repeats := 8
	if quick {
		repeats = 2
	}

	set := telemetry.NewSet()
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	srv.SetOverload(overload.Config{MaxGenWorkers: 1, QueueDeadline: 2 * time.Millisecond})
	orig, err := telemetryPage("/tel/originals", "tel-orig", true)
	if err != nil {
		return nil, err
	}
	srv.AddPage(orig)
	warm, err := telemetryPage("/tel/warm", "tel-warm", false)
	if err != nil {
		return nil, err
	}
	srv.AddPage(warm)
	cold, err := telemetryPage("/tel/cold", "tel-cold", false)
	if err != nil {
		return nil, err
	}
	srv.AddPage(cold)
	srv.EnableTelemetry(set)

	dial := func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	}
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	nc, err := dial()
	if err != nil {
		return nil, err
	}
	capable, err := core.NewClient(nc, device.Laptop, proc)
	if err != nil {
		return nil, err
	}
	defer capable.Close()
	nc, err = dial()
	if err != nil {
		return nil, err
	}
	plain, err := core.NewClient(nc, device.Laptop, nil)
	if err != nil {
		return nil, err
	}
	defer plain.Close()

	// Each repeat loop is paced on a schedule and timed from the
	// intended slot.
	schedHist := telemetry.NewHistogram(nil)
	pacedFetch := func(cl *core.Client, path string, n int) error {
		const interval = 5 * time.Millisecond
		clock := telemetry.StartSchedule(time.Now())
		for i := 0; i < n; i++ {
			intended := time.Duration(i+1) * interval
			if d := time.Until(clock.Intended(intended)); d > 0 {
				time.Sleep(d)
			}
			if _, err := cl.Fetch(path); err != nil {
				return err
			}
			clock.ObserveSince(schedHist, intended)
		}
		return nil
	}

	// Outcome "prompt": capable fetches while healthy.
	if err := pacedFetch(capable, orig.Path, repeats); err != nil {
		return nil, fmt.Errorf("prompt fetch: %w", err)
	}
	// Outcomes "traditional" (first) then "cached" (repeats).
	if _, err := plain.Fetch(warm.Path); err != nil {
		return nil, fmt.Errorf("traditional fetch: %w", err)
	}
	if err := pacedFetch(plain, warm.Path, repeats); err != nil {
		return nil, fmt.Errorf("cached fetch: %w", err)
	}

	// Saturate: occupy the only worker and park a waiter, then take
	// the policy flip and the 503.
	g := srv.Overload()
	if err := g.Pool().Acquire(context.Background()); err != nil {
		return nil, err
	}
	defer g.Pool().Release()
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if g.Pool().Acquire(waiterCtx) == nil {
			g.Pool().Release()
		}
	}()
	defer func() { cancelWaiter(); <-waiterDone }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, waiting := g.Pool().Load(); waiting > 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("telemetry sweep: pool waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := pacedFetch(capable, orig.Path, repeats); err != nil {
		return nil, fmt.Errorf("policy-flip fetch: %w", err)
	}
	var busy *core.ServerBusyError
	if _, err := plain.Fetch(cold.Path); !errors.As(err, &busy) {
		return nil, fmt.Errorf("cold fetch under saturation: %v, want 503 busy", err)
	}

	// Report purely from the ops surface.
	snap := set.Registry.Snapshot()
	res := &TelemetryResult{
		TracesTotal: set.Traces.Total(),
		EventsTotal: set.Events.Total(),
	}
	var counted uint64
	for _, outcome := range []string{
		core.OutcomePrompt, core.OutcomeTraditional, core.OutcomeCached,
		core.OutcomePolicyFlip, core.OutcomeShed, core.OutcomeAsset,
	} {
		n := snap.Counters[telemetry.WithLabel("sww_requests_total", "outcome", outcome)]
		h := snap.Histograms[telemetry.WithLabel("sww_request_duration_seconds", "outcome", outcome)]
		counted += n
		res.Rows = append(res.Rows, TelemetryOutcomeRow{
			Outcome: outcome, Requests: n,
			P50ms: h.P50ms, P95ms: h.P95ms, P99ms: h.P99ms,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Requests > res.Rows[j].Requests })
	for _, ts := range set.Traces.Snapshot() {
		if ts.Done {
			res.TracesFinished++
		}
	}
	res.CountersMatchTraces = counted == uint64(res.TracesFinished) && counted > 0
	sched := schedHist.Snapshot()
	res.ClientSchedP50ms = float64(sched.P50) / float64(time.Millisecond)
	res.ClientSchedP99ms = float64(sched.P99) / float64(time.Millisecond)
	return res, nil
}

// reportTelemetry prints E22: the shed ladder observed purely through
// the ops surface (registry, trace ring and event log), with
// per-outcome request counts, latency percentiles, and the
// counters-equal-traces invariant it fails without.
func reportTelemetry(w io.Writer, quick bool) (any, error) {
	rep, err := TelemetrySweep(quick)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "per-outcome requests and latency, read back from the ops registry:\n")
	fmt.Fprintf(w, "%-14s %9s %9s %9s %9s\n", "outcome", "requests", "p50", "p95", "p99")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-14s %9d %7.2fms %7.2fms %7.2fms\n",
			r.Outcome, r.Requests, r.P50ms, r.P95ms, r.P99ms)
	}
	fmt.Fprintf(w, "traces: %d finished / %d total; events: %d; counters==traces: %v\n",
		rep.TracesFinished, rep.TracesTotal, rep.EventsTotal, rep.CountersMatchTraces)
	fmt.Fprintf(w, "client-side paced loops: p50/p99 %.2f/%.2fms from intended slots\n",
		rep.ClientSchedP50ms, rep.ClientSchedP99ms)
	if !rep.CountersMatchTraces {
		return rep, errors.New("per-outcome counters do not sum to finished traces")
	}
	return rep, nil
}

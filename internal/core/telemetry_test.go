package core

// End-to-end telemetry tests: a fetch against a telemetry-enabled
// server must leave one complete trace whose outcome matches the
// shed-ladder decision, and the per-outcome request counters must
// line up with what was served. Run with -race: the instruments are
// lock-free atomics hit from every serving goroutine.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/telemetry"
)

// findTrace returns the first finished trace for path with the given
// outcome.
func findTrace(snaps []telemetry.TraceSnapshot, path, outcome string) (telemetry.TraceSnapshot, bool) {
	for _, ts := range snaps {
		if ts.Path == path && ts.Outcome == outcome && ts.Done {
			return ts, true
		}
	}
	return telemetry.TraceSnapshot{}, false
}

// spanStages flattens a trace's span stages for containment checks.
func spanStages(ts telemetry.TraceSnapshot) map[string]telemetry.Span {
	m := map[string]telemetry.Span{}
	for _, sp := range ts.Spans {
		m[sp.Stage] = sp
	}
	return m
}

// TestTelemetryEndToEnd walks the shed ladder over real HTTP/2
// connections and checks that every rung leaves a trace with the
// matching outcome and stage spans, and that the per-outcome counters
// agree.
func TestTelemetryEndToEnd(t *testing.T) {
	set := telemetry.NewSet()
	srv := newOverloadServer(t, overload.Config{
		MaxGenWorkers: 1,
		QueueDeadline: 5 * time.Millisecond,
	})
	orig := overloadOriginalsPage()
	srv.AddPage(orig)
	warm := overloadGenPage(0)
	srv.AddPage(warm)
	cold := overloadGenPage(1)
	srv.AddPage(cold)
	srv.EnableTelemetry(set)

	dial := func() net.Conn {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd
	}

	// Outcome "prompt": a capable client gets prompts and generates
	// locally.
	proc, err := NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	capable, err := NewClient(dial(), device.Laptop, proc)
	if err != nil {
		t.Fatal(err)
	}
	defer capable.Close()
	if res, err := capable.Fetch(orig.Path); err != nil || res.Mode != ModeGenerative {
		t.Fatalf("capable fetch: res %+v err %v, want generative", res, err)
	}

	// Outcomes "traditional" then "cached": a GenNone client forces a
	// server-side generation, then a warm LRU hit.
	plain, err := NewClient(dial(), device.Laptop, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if res, err := plain.Fetch(warm.Path); err != nil || res.Mode != ModeTraditional {
		t.Fatalf("traditional fetch: res %+v err %v", res, err)
	}
	if _, err := plain.Fetch(warm.Path); err != nil {
		t.Fatalf("cached fetch: %v", err)
	}

	// Saturate deterministically (occupied worker + parked waiter) for
	// the policy flip and the 503.
	g := srv.Overload()
	if err := g.Pool().Acquire(context.Background()); err != nil {
		t.Fatal(err)
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
			t.Fatal("pool waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Outcome "policy-flip": the capable client is switched to the
	// pre-rendered form under saturation.
	if res, err := capable.Fetch(orig.Path); err != nil || res.Mode != ModeTraditional {
		t.Fatalf("policy-flip fetch: res %+v err %v, want traditional", res, err)
	}

	// Outcome "shed": a cold page with no originals needs a generation
	// the server cannot afford — 503 + Retry-After.
	var busy *ServerBusyError
	if _, err := plain.Fetch(cold.Path); !errors.As(err, &busy) {
		t.Fatalf("cold fetch under saturation: err %v, want ServerBusyError", err)
	}
	if busy.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", busy.RetryAfter)
	}

	// The 503 can reach the client before its handler goroutine has
	// finished the request; the duration histogram is the last thing
	// finishRequest touches.
	shedSeen := telemetry.WithLabel("sww_request_duration_seconds", "outcome", OutcomeShed)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if set.Registry.Snapshot().Histograms[shedSeen].Count > 0 {
			break
		}
	}
	snaps := set.Traces.Snapshot()
	// One complete trace per rung, with the stages that decision took.
	prompt, ok := findTrace(snaps, orig.Path, OutcomePrompt)
	if !ok {
		t.Fatalf("no finished %q trace for %s in %d traces", OutcomePrompt, orig.Path, len(snaps))
	}
	if prompt.Proto != "h2" {
		t.Errorf("prompt trace proto %q, want h2", prompt.Proto)
	}
	stages := spanStages(prompt)
	for _, want := range []string{"negotiate", "lookup", "serve"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("prompt trace missing %q span: %+v", want, prompt.Spans)
		}
	}
	if !strings.Contains(stages["negotiate"].Note, "basic") {
		t.Errorf("negotiate note %q does not record the peer ability", stages["negotiate"].Note)
	}

	trad, ok := findTrace(snaps, warm.Path, OutcomeTraditional)
	if !ok {
		t.Fatalf("no finished %q trace for %s", OutcomeTraditional, warm.Path)
	}
	stages = spanStages(trad)
	for _, want := range []string{"cache", "admission", "generate", "serve"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("traditional trace missing %q span: %+v", want, trad.Spans)
		}
	}
	if stages["cache"].Note != "miss" {
		t.Errorf("traditional cache span note %q, want miss", stages["cache"].Note)
	}

	hit, ok := findTrace(snaps, warm.Path, OutcomeCached)
	if !ok {
		t.Fatalf("no finished %q trace for %s", OutcomeCached, warm.Path)
	}
	if n := spanStages(hit)["cache"].Note; n != "hit" {
		t.Errorf("cached trace cache span note %q, want hit", n)
	}

	if _, ok := findTrace(snaps, orig.Path, OutcomePolicyFlip); !ok {
		t.Fatalf("no finished %q trace for %s", OutcomePolicyFlip, orig.Path)
	}

	shed, ok := findTrace(snaps, cold.Path, OutcomeShed)
	if !ok {
		t.Fatalf("no finished %q trace for %s", OutcomeShed, cold.Path)
	}
	stages = spanStages(shed)
	if _, ok := stages["admission"]; !ok {
		t.Errorf("shed trace missing admission span: %+v", shed.Spans)
	}

	// The per-outcome counters must agree with what was served.
	snap := set.Registry.Snapshot()
	for outcome, want := range map[string]uint64{
		OutcomePrompt:      1,
		OutcomeTraditional: 1,
		OutcomeCached:      1,
		OutcomePolicyFlip:  1,
		OutcomeShed:        1,
	} {
		key := telemetry.WithLabel("sww_requests_total", "outcome", outcome)
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
		hkey := telemetry.WithLabel("sww_request_duration_seconds", "outcome", outcome)
		if got := snap.Histograms[hkey].Count; got != want {
			t.Errorf("%s count = %d, want %d", hkey, got, want)
		}
	}
	// The shed left an event on the log.
	found := false
	for _, ev := range set.Events.Snapshot() {
		if ev.Kind == "shed" && strings.Contains(ev.Detail, cold.Path) {
			found = true
		}
	}
	if !found {
		t.Errorf("no shed event for %s in the event log", cold.Path)
	}
}

// TestClientTelemetryCounters: the resilient client's attempt, retry
// and busy counters plus the backoff histogram line up with an
// always-503 exchange.
func TestClientTelemetryCounters(t *testing.T) {
	set := telemetry.NewSet()
	h2srv := &http2.Server{Handler: http2.HandlerFunc(func(w *http2.ResponseWriter, r *http2.Request) {
		w.WriteHeaders(503, hpack.HeaderField{Name: RetryAfterHeader, Value: "0"})
	})}
	dial := func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		h2srv.StartConn(sEnd)
		return cEnd, nil
	}
	rc := NewResilientClient(dial, device.Laptop, nil,
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 5})
	defer rc.Close()
	rc.SetTelemetry(set)

	var busy *ServerBusyError
	if _, err := rc.Fetch("/"); !errors.As(err, &busy) {
		t.Fatalf("err %v, want exhausted attempts wrapping ServerBusyError", err)
	}
	snap := set.Registry.Snapshot()
	for name, want := range map[string]uint64{
		"sww_client_attempts_total": 3,
		"sww_client_retries_total":  2,
		"sww_client_busy_total":     3,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Two inter-attempt waits were recorded (none after the last).
	if got := snap.Histograms["sww_client_backoff_seconds"].Count; got != 2 {
		t.Errorf("backoff observations = %d, want 2", got)
	}
}

// TestInlineAccountingWithDeclines: requests answered on the read
// loop, requests the handler declines there (a generation), and
// requests the transport declines there (a body past one frame, a
// stream window too small for the body) together leave exactly one
// finished trace and one outcome count per request — an attempt that
// was declined and served again from a goroutine is not seen twice —
// and a generated page's LRU hit is counted once.
func TestInlineAccountingWithDeclines(t *testing.T) {
	set := telemetry.NewSet()
	srv := newOverloadServer(t, overload.Config{MaxGenWorkers: 2})
	page := overloadGenPage(0)
	big := overloadGenPage(1)
	big.Unique = []Asset{{Path: "/asset/big", ContentType: "image/png", Data: make([]byte, 40<<10)}}
	srv.AddPage(page)
	srv.AddPage(big)
	srv.EnableTelemetry(set)

	dial := func(cfg http2.Config) *http2.ClientConn {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		cc, err := http2.NewClientConn(cEnd, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	capable := dial(http2.Config{GenAbility: http2.GenFull})
	narrow := dial(http2.Config{GenAbility: http2.GenFull, InitialWindowSize: 64})
	legacy := dial(http2.Config{})

	requests := 0
	get := func(cc *http2.ClientConn, path string, status int, mode string) {
		t.Helper()
		requests++
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if _, err := http2.ReadAllBody(resp); err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		if resp.Status != status || resp.HeaderValue(ModeHeader) != mode {
			t.Fatalf("GET %s = %d mode %q, want %d %q", path, resp.Status, resp.HeaderValue(ModeHeader), status, mode)
		}
	}
	if len(page.PromptBytes()) <= 64 {
		t.Fatal("the prompt page fits the narrow client's window; it would not be declined")
	}
	hitsBefore := srv.OverloadStats().CacheHits
	for i := 0; i < 3; i++ {
		get(capable, page.Path, 200, ModeGenerative) // inline
		get(narrow, page.Path, 200, ModeGenerative)  // window declines
		get(capable, "/asset/big", 200, "")          // frame size declines
		get(capable, "/no/such/page", 404, "")       // inline
		get(legacy, page.Path, 200, ModeTraditional) // generates once, then inline LRU hits
		get(narrow, "/asset/big", 200, "")           // both decline
	}

	outcomes := func() (sum uint64, by map[string]uint64) {
		snap := set.Registry.Snapshot()
		by = map[string]uint64{}
		for _, o := range requestOutcomes {
			n := snap.Counters[telemetry.WithLabel("sww_requests_total", "outcome", o)]
			by[o] = n
			sum += n
		}
		return sum, by
	}
	// The last reply can reach the client before its handler has
	// finished the request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sum, _ := outcomes(); sum >= uint64(requests) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sum, by := outcomes()
	if sum != uint64(requests) {
		t.Errorf("outcome counters sum to %d, want %d requests: %v", sum, requests, by)
	}
	want := map[string]uint64{OutcomePrompt: 6, OutcomeAsset: 6, OutcomeNotFound: 3, OutcomeTraditional: 1, OutcomeCached: 2}
	for o, n := range want {
		if by[o] != n {
			t.Errorf("outcome %q counted %d times, want %d", o, by[o], n)
		}
	}
	if got := set.Traces.Total(); got != uint64(requests) {
		t.Errorf("%d traces started for %d requests", got, requests)
	}
	for _, ts := range set.Traces.Snapshot() {
		if !ts.Done || ts.Outcome == "" {
			t.Errorf("trace %d for %s left unfinished", ts.ID, ts.Path)
		}
	}
	if got := srv.OverloadStats().CacheHits - hitsBefore; got != want[OutcomeCached] {
		t.Errorf("cache hits counted %d times for %d cached replies", got, want[OutcomeCached])
	}
}

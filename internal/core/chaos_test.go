package core_test

// Chaos tests: the full SWW fetch pipeline driven through faultnet
// with injected transport failures and generation overruns. Every
// test must terminate — success after retry, degradation, or a typed
// error — and never hang, including under -race.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/faultnet"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/workload"
)

// chaosSite builds the multi-asset travel-blog site: three generated
// stock images plus one unique 48 kB photo that must cross the wire.
func chaosSite(t *testing.T) *core.Server {
	t.Helper()
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.TravelBlog())
	return srv
}

// planDialer dials one faultnet pipe per attempt, the n-th dial
// getting the plan's n-th fault config. Faults apply to the server's
// writes — the direction the client's fetches depend on.
func planDialer(srv *core.Server, plan *faultnet.Plan) core.DialFunc {
	return func() (net.Conn, error) {
		cli, faulted := faultnet.Pipe(plan.Next())
		srv.StartConn(faulted)
		return cli, nil
	}
}

func chaosProcessor(t *testing.T) *core.PageProcessor {
	t.Helper()
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// baselineAssets runs a fault-free fetch and returns its asset count,
// the reference the chaos runs must match.
func baselineAssets(t *testing.T) int {
	t.Helper()
	srv := chaosSite(t)
	rc := core.NewResilientClient(planDialer(srv, faultnet.NewPlan(faultnet.Config{})),
		device.Laptop, chaosProcessor(t), core.RetryPolicy{})
	defer rc.Close()
	res, err := rc.Fetch(workload.TravelBlogPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Degraded {
		t.Fatalf("clean run: attempts=%d degraded=%v", res.Attempts, res.Degraded)
	}
	return len(res.Assets)
}

// TestChaosTruncationAndReset is the acceptance scenario: the first
// connection truncates mid-asset, the reconnect is reset, and the
// third connection is clean. The fetch must complete through retry
// with the same rendered asset count as the fault-free run.
func TestChaosTruncationAndReset(t *testing.T) {
	want := baselineAssets(t)

	srv := chaosSite(t)
	plan := faultnet.NewPlan(
		faultnet.Config{Seed: 1, TruncateAfter: 20_000}, // dies inside the unique photo
		faultnet.Config{Seed: 2, ResetAfter: 8_000},     // reconnect reset earlier still
		faultnet.Config{}, // then the network heals
	)
	rc := core.NewResilientClient(planDialer(srv, plan), device.Laptop, chaosProcessor(t),
		core.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 42})
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rc.FetchContext(ctx, workload.TravelBlogPath)
	if err != nil {
		t.Fatalf("fetch through truncation+reset: %v", err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (truncate, reset, clean)", res.Attempts)
	}
	if res.Degraded {
		t.Error("transport faults must not degrade the mode")
	}
	if res.Mode != core.ModeGenerative {
		t.Errorf("mode = %q", res.Mode)
	}
	if len(res.Assets) != want {
		t.Errorf("rendered %d assets, fault-free run rendered %d", len(res.Assets), want)
	}
	if photo := res.Assets["/unique/hornspitze-summit.jpg"]; len(photo) != 48_000 {
		t.Errorf("unique photo = %d bytes after retries, want 48000 intact", len(photo))
	}
	if plan.Dials() != 3 {
		t.Errorf("dials = %d", plan.Dials())
	}
}

// TestChaosFaultClasses drives one e2e fetch per fault class. Each
// run must either succeed (possibly after retries) or fail with a
// typed error — and always terminate.
func TestChaosFaultClasses(t *testing.T) {
	cases := []struct {
		name string
		// first dial's faults; later dials are clean
		fault  faultnet.Config
		policy core.RetryPolicy
		// wantRetry: success with attempts > 1. wantClean: success in
		// one attempt. Neither: any terminating outcome is fine, but
		// an error must satisfy wantErr when set.
		wantRetry bool
		wantClean bool
		wantErr   func(error) bool
	}{
		{
			name:      "latency",
			fault:     faultnet.Config{Seed: 7, ReadLatency: 2 * time.Millisecond, WriteLatency: 2 * time.Millisecond},
			wantClean: true,
		},
		{
			name:      "bandwidth-cap",
			fault:     faultnet.Config{Seed: 7, BandwidthBps: 2_000_000, ChunkWrites: 4096},
			wantClean: true,
		},
		{
			name:      "short-writes",
			fault:     faultnet.Config{Seed: 7, ChunkWrites: 512},
			wantClean: true,
		},
		{
			name:      "stall-recovers",
			fault:     faultnet.Config{Seed: 7, StallAfter: 10_000, StallFor: 100 * time.Millisecond},
			wantClean: true,
		},
		{
			name:      "truncation",
			fault:     faultnet.Config{Seed: 7, TruncateAfter: 20_000},
			policy:    core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 9},
			wantRetry: true,
		},
		{
			name:      "reset",
			fault:     faultnet.Config{Seed: 7, ResetAfter: 6_000},
			policy:    core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 9},
			wantRetry: true,
		},
		{
			name:  "blackhole",
			fault: faultnet.Config{Seed: 7, BlackholeAfter: 30_000},
			// Generous timeout: generation is CPU-bound and slows
			// ~10x under -race; only the blackholed attempt may trip.
			policy: core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond,
				AttemptTimeout: 8 * time.Second, Seed: 9},
			wantRetry: true,
		},
		{
			name:   "corruption",
			fault:  faultnet.Config{Seed: 7, CorruptProb: 0.05, ChunkWrites: 1024},
			policy: core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 9},
			// Corruption may surface as a retryable transport fault
			// (then the clean redial wins) or as a fatal protocol
			// violation — both are acceptable, hanging is not.
			wantErr: func(err error) bool {
				var ce http2.ConnectionError
				var se StreamErrAlias
				return errors.As(err, &ce) || errors.As(err, &se)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := chaosSite(t)
			plan := faultnet.NewPlan(tc.fault, faultnet.Config{})
			rc := core.NewResilientClient(planDialer(srv, plan), device.Laptop,
				chaosProcessor(t), tc.policy)
			defer rc.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan struct{})
			var res *core.FetchResult
			var err error
			go func() {
				res, err = rc.FetchContext(ctx, workload.TravelBlogPath)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(45 * time.Second):
				t.Fatal("chaos fetch hung")
			}

			switch {
			case tc.wantClean:
				if err != nil {
					t.Fatalf("clean-class fault failed: %v", err)
				}
				if res.Attempts != 1 {
					t.Errorf("attempts = %d, want 1", res.Attempts)
				}
			case tc.wantRetry:
				if err != nil {
					t.Fatalf("retry-class fault failed: %v", err)
				}
				if res.Attempts < 2 {
					t.Errorf("attempts = %d, want ≥ 2", res.Attempts)
				}
			default:
				if err != nil && tc.wantErr != nil && !tc.wantErr(err) {
					t.Errorf("terminating error has unexpected type: %v", err)
				}
			}
			if err == nil && res.Mode != core.ModeGenerative {
				t.Errorf("mode = %q", res.Mode)
			}
		})
	}
}

// StreamErrAlias keeps the corruption matcher readable.
type StreamErrAlias = http2.StreamError

// TestChaosDegradeToTraditional blows the generation budget: the
// prompt page arrives fine, local generation overruns SimBudget, and
// the ladder re-fetches traditionally on a GenNone connection.
func TestChaosDegradeToTraditional(t *testing.T) {
	srv := chaosSite(t)
	proc := chaosProcessor(t)
	proc.SimBudget = time.Second // the blog needs tens of simulated seconds
	rc := core.NewResilientClient(planDialer(srv, faultnet.NewPlan(faultnet.Config{})),
		device.Laptop, proc, core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond})
	defer rc.Close()

	res, err := rc.Fetch(workload.TravelBlogPath)
	if err != nil {
		t.Fatalf("degradation path failed: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if !strings.Contains(res.DegradeReason, "deadline") {
		t.Errorf("reason = %q, want a deadline reason", res.DegradeReason)
	}
	if res.Mode != core.ModeTraditional {
		t.Errorf("mode = %q, want traditional after degradation", res.Mode)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (generative try + traditional re-fetch)", res.Attempts)
	}
	// The degraded page still renders complete: the stock images
	// arrive as originals instead of being generated.
	if got := baselineAssets(t); len(res.Assets) != got {
		t.Errorf("degraded render has %d assets, generative baseline %d", len(res.Assets), got)
	}
	if !strings.Contains(res.HTML, "Bergstation car park") {
		t.Error("unique route text lost in degraded mode")
	}
	if strings.Contains(res.HTML, "generated-content") {
		t.Error("degraded page still contains prompt divs")
	}
}

// TestChaosDegradeUnderFaults combines the ladders: the first
// connection truncates, the retry succeeds but generation overruns,
// and the traditional re-fetch completes the page.
func TestChaosDegradeUnderFaults(t *testing.T) {
	srv := chaosSite(t)
	proc := chaosProcessor(t)
	proc.SimBudget = time.Second
	plan := faultnet.NewPlan(
		faultnet.Config{Seed: 3, TruncateAfter: 600}, // dies during the prompt page
		faultnet.Config{},
	)
	rc := core.NewResilientClient(planDialer(srv, plan), device.Laptop, proc,
		core.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 11})
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rc.FetchContext(ctx, workload.TravelBlogPath)
	if err != nil {
		t.Fatalf("combined ladder failed: %v", err)
	}
	if !res.Degraded || res.Mode != core.ModeTraditional {
		t.Errorf("degraded=%v mode=%q", res.Degraded, res.Mode)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (truncated, gen overrun, traditional)", res.Attempts)
	}
}

// TestChaosRetriesExhausted: a network that never heals must yield
// the typed exhaustion error, not an infinite loop.
func TestChaosRetriesExhausted(t *testing.T) {
	srv := chaosSite(t)
	plan := faultnet.NewPlan(faultnet.Config{Seed: 5, ResetAfter: 4_000}) // every dial resets
	rc := core.NewResilientClient(planDialer(srv, plan), device.Laptop, chaosProcessor(t),
		core.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 13})
	defer rc.Close()

	_, err := rc.Fetch(workload.TravelBlogPath)
	if err == nil {
		t.Fatal("fetch succeeded on a permanently failing network")
	}
	if !strings.Contains(err.Error(), "3 attempts exhausted") {
		t.Errorf("err = %v, want attempts-exhausted", err)
	}
	if !http2.Retryable(errors.Unwrap(err)) && !strings.Contains(err.Error(), "transport") {
		t.Errorf("exhaustion should wrap the last transport error: %v", err)
	}
	if plan.Dials() != 3 {
		t.Errorf("dials = %d, want one per attempt", plan.Dials())
	}
}

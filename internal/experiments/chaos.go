package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/faultnet"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/workload"
)

// ChaosRow is one fault scenario's outcome: how the resilient fetch
// pipeline coped with an injected failure mode.
type ChaosRow struct {
	Scenario string

	// OK is true when the page rendered completely.
	OK bool
	// Attempts is connection-level tries; Dials counts actual dials.
	Attempts int
	Dials    int
	// Degraded marks a fall back to traditional content.
	Degraded      bool
	DegradeReason string
	// Mode is the final served mode, Assets the rendered asset count
	// (compare against the clean row), WireBytes the bytes that
	// crossed on the winning attempt.
	Mode      string
	Assets    int
	WireBytes int
	Err       error
}

// ChaosSweep drives the travel-blog fetch through the fault ladder:
// each scenario injects one failure class on the first connection(s)
// and lets the resilient client recover. The clean row is the
// reference — every recovering row must render the same asset count.
func ChaosSweep() ([]ChaosRow, error) {
	type scenario struct {
		name   string
		plan   *faultnet.Plan
		policy core.RetryPolicy
		budget time.Duration // generation SimBudget; 0 = unbounded
	}
	base := core.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, Jitter: 0.2, Seed: 17}
	scenarios := []scenario{
		{name: "clean", plan: faultnet.NewPlan(faultnet.Config{}), policy: base},
		{
			name: "truncate-then-heal",
			plan: faultnet.NewPlan(
				faultnet.Config{Seed: 1, TruncateAfter: 20_000},
				faultnet.Config{}),
			policy: base,
		},
		{
			name: "reset-twice",
			plan: faultnet.NewPlan(
				faultnet.Config{Seed: 2, ResetAfter: 8_000},
				faultnet.Config{Seed: 3, ResetAfter: 8_000},
				faultnet.Config{}),
			policy: base,
		},
		{
			name: "blackhole",
			plan: faultnet.NewPlan(
				faultnet.Config{Seed: 4, BlackholeAfter: 30_000},
				faultnet.Config{}),
			policy: func() core.RetryPolicy {
				p := base
				p.AttemptTimeout = 8 * time.Second
				return p
			}(),
		},
		{
			name:   "gen-deadline-degrade",
			plan:   faultnet.NewPlan(faultnet.Config{}),
			policy: base,
			budget: time.Second,
		},
		{
			name:   "never-heals",
			plan:   faultnet.NewPlan(faultnet.Config{Seed: 5, ResetAfter: 4_000}),
			policy: base,
		},
	}

	var rows []ChaosRow
	for _, sc := range scenarios {
		srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			return nil, err
		}
		srv.AddPage(workload.TravelBlog())
		proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			return nil, err
		}
		proc.SimBudget = sc.budget
		plan := sc.plan
		dial := func() (net.Conn, error) {
			cli, faulted := faultnet.Pipe(plan.Next())
			srv.StartConn(faulted)
			return cli, nil
		}
		rc := core.NewResilientClient(dial, device.Laptop, proc, sc.policy, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := rc.FetchContext(ctx, workload.TravelBlogPath)
		cancel()
		rc.Close()

		row := ChaosRow{Scenario: sc.name, OK: err == nil, Dials: plan.Dials(), Err: err}
		if res != nil {
			row.Attempts = res.Attempts
			row.Degraded = res.Degraded
			row.DegradeReason = res.DegradeReason
			row.Mode = res.Mode
			row.Assets = len(res.Assets)
			row.WireBytes = res.WireBytes
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func reportChaos(w io.Writer, _ bool) (any, error) {
	rows, err := ChaosSweep()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "resilient fetch of the travel blog under injected faults;\n")
	fmt.Fprintf(w, "every recovering row must render the clean row's asset count\n")
	fmt.Fprintf(w, "%-22s %-4s %8s %6s %-12s %7s %9s %s\n",
		"scenario", "ok", "attempts", "dials", "mode", "assets", "wire[B]", "note")
	for _, r := range rows {
		note := ""
		if r.Degraded {
			note = "degraded: " + r.DegradeReason
		} else if r.Err != nil {
			note = r.Err.Error()
		}
		if len(note) > 48 {
			note = note[:48] + "…"
		}
		fmt.Fprintf(w, "%-22s %-4v %8d %6d %-12s %7d %9d %s\n",
			r.Scenario, r.OK, r.Attempts, r.Dials, r.Mode, r.Assets, r.WireBytes, note)
	}
	return rows, nil
}

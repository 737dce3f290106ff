package experiments

// E25: origin high availability under the failures the HA machinery
// exists for. Four phases:
//
//  1. Warm restart — the origin is killed (every connection severed)
//     and restarted over the same durable log directory. It must
//     resume its old sequence number, and a warm edge's next poll must
//     reconcile incrementally: zero resets, zero flushed shards.
//  2. Failover — a warm standby mirrors the primary's feed; the
//     primary is killed mid-churn. The standby must promote itself
//     past the primary's epoch with zero lost invalidation sequences,
//     and an edge listing both origins must fail over to it and apply
//     a post-failover invalidation (fresh content, no reset).
//  3. Fencing — the old primary returns from its own durable state,
//     below the promoted epoch. The standby's watch probe must fence
//     it (it answers 409 thereafter), and an edge that lived through
//     the failover must refuse its stale-epoch feed.
//  4. Retry storm — edges hammer a blackholed origin with and without
//     a retry budget. The budgeted edge's upstream attempt volume must
//     stay within burst + ratio x pulls; the unbudgeted edge shows the
//     MaxAttempts multiple the budget is there to prevent.

import (
	"context"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/tier"
	"sww/internal/workload"
)

// OriginHAReport is E25's deliverable.
type OriginHAReport struct {
	Pages int `json:"pages"`

	// Warm restart phase.
	SeqBeforeRestart uint64 `json:"seq_before_restart"`
	SeqAfterRestart  uint64 `json:"seq_after_restart"`
	RestartResets    uint64 `json:"restart_resets"`    // edge flushes caused by the restart (want 0)
	RestartCaughtUp  bool   `json:"restart_caught_up"` // edge reconciled the post-restart entries

	// Failover phase.
	PrimarySeqAtKill uint64        `json:"primary_seq_at_kill"`
	PromotedEpoch    uint64        `json:"promoted_epoch"`
	PromotedSeq      uint64        `json:"promoted_seq"` // standby's head at promotion
	LostSeqs         int64         `json:"lost_seqs"`    // primary head - promoted head (want 0)
	FailoverAfter    time.Duration `json:"failover_after_ns"`
	EdgeFailovers    uint64        `json:"edge_failovers"`
	FailoverResets   uint64        `json:"failover_resets"` // edge flushes during failover (want 0)
	FreshInvalServed bool          `json:"fresh_inval_served"`

	// Fencing phase.
	ZombieEpoch     uint64 `json:"zombie_epoch"`
	ZombieFenced    bool   `json:"zombie_fenced"`
	FenceRefusals   uint64 `json:"fence_refusals"`
	EdgeEpochFenced uint64 `json:"edge_epoch_fenced"` // stale feeds the edge refused

	// Retry-storm phase.
	StormFetches      int     `json:"storm_fetches"`
	BudgetRatio       float64 `json:"budget_ratio"`
	BudgetBurst       int     `json:"budget_burst"`
	BudgetedAttempts  uint64  `json:"budgeted_attempts"`
	BudgetedRetries   uint64  `json:"budgeted_retries"`
	UnbudgetedRetries uint64  `json:"unbudgeted_retries"`
	RetryCeiling      float64 `json:"retry_ceiling"` // burst + ratio x pulls the budget allows
	BudgetExhausted   uint64  `json:"budget_exhausted"`
}

// OriginHASweep runs E25. quick trims the storm-phase fetch count.
func OriginHASweep(quick bool) (*OriginHAReport, error) {
	rep := &OriginHAReport{Pages: edgeTierPages}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	if err := originHARestart(ctx, rep); err != nil {
		return rep, fmt.Errorf("warm restart phase: %w", err)
	}
	if err := originHAFailover(ctx, rep); err != nil {
		return rep, fmt.Errorf("failover phase: %w", err)
	}
	if err := originHAStorm(ctx, rep, quick); err != nil {
		return rep, fmt.Errorf("retry storm phase: %w", err)
	}
	return rep, nil
}

// originHARestart: kill and restart the origin over its durable log;
// the edge must reconcile incrementally, never reset.
func originHARestart(ctx context.Context, rep *OriginHAReport) error {
	fleet, err := tier.New(tier.Options{Edges: []string{"edge1"}, Durable: true})
	if err != nil {
		return err
	}
	defer fleet.Close()
	e := fleet.Edge("edge1")

	for i := 0; i < edgeTierPages; i++ {
		if err := fetchOK(fleet.Fetch(ctx, "edge1", workload.CDNPagePath(i))); err != nil {
			return fmt.Errorf("warming page %d: %w", i, err)
		}
	}
	fleet.Primary().Invalidate([]string{workload.CDNPagePath(0)})
	fleet.Primary().Invalidate([]string{workload.CDNPagePath(1)})
	if err := e.PollOnce(ctx); err != nil {
		return fmt.Errorf("anchor poll: %w", err)
	}
	rep.SeqBeforeRestart = fleet.Primary().Seq()

	fleet.KillPrimary()
	if err := fleet.RestartPrimary(); err != nil {
		return fmt.Errorf("restarting origin: %w", err)
	}
	rep.SeqAfterRestart = fleet.Primary().Seq()
	if rep.SeqAfterRestart != rep.SeqBeforeRestart {
		return fmt.Errorf("restart lost the sequence space: %d -> %d",
			rep.SeqBeforeRestart, rep.SeqAfterRestart)
	}

	// Post-restart invalidations reconcile incrementally.
	fleet.Primary().Invalidate([]string{workload.CDNPagePath(2)})
	if err := e.PollOnce(ctx); err != nil {
		return fmt.Errorf("reconcile poll: %w", err)
	}
	s := e.Stats()
	rep.RestartResets = s.InvalResets
	rep.RestartCaughtUp = s.LastSeq == fleet.Primary().Seq()
	return nil
}

// originHAFailover: kill the primary mid-churn; the standby promotes
// with zero lost sequences, the edge fails over and applies a fresh
// invalidation; then the zombie returns and is fenced.
func originHAFailover(ctx context.Context, rep *OriginHAReport) error {
	fleet, err := tier.New(tier.Options{Edges: []string{"edge1"}, Durable: true, Standby: true})
	if err != nil {
		return err
	}
	defer fleet.Close()
	e := fleet.Edge("edge1")

	for i := 0; i < edgeTierPages; i++ {
		if err := fetchOK(fleet.Fetch(ctx, "edge1", workload.CDNPagePath(i))); err != nil {
			return fmt.Errorf("warming page %d: %w", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		fleet.Primary().Invalidate([]string{workload.CDNPagePath(i)})
	}
	if err := e.PollOnce(ctx); err != nil {
		return fmt.Errorf("anchor poll: %w", err)
	}
	if err := tier.WaitUntil(ctx, "standby mirror catch-up", func() bool {
		return fleet.StandbyOrigin.Seq() == fleet.Primary().Seq()
	}); err != nil {
		return err
	}

	rep.PrimarySeqAtKill = fleet.Primary().Seq()
	killed := time.Now()
	fleet.KillPrimary()
	if err := tier.WaitUntil(ctx, "standby promotion", func() bool {
		return fleet.StandbyOrigin.Role() == cdn.RolePrimary
	}); err != nil {
		return err
	}
	rep.FailoverAfter = time.Since(killed)
	rep.PromotedEpoch = fleet.StandbyOrigin.Epoch()
	rep.PromotedSeq = fleet.StandbyOrigin.Seq()
	rep.LostSeqs = int64(rep.PrimarySeqAtKill) - int64(rep.PromotedSeq)

	// The promoted origin issues a fresh invalidation; the edge must
	// fail over, adopt the new epoch, and apply it — no reset.
	fresh := workload.CDNPagePath(5)
	fleet.StandbyOrigin.Invalidate([]string{fresh})
	if err := tier.WaitUntil(ctx, "edge failover reconcile", func() bool {
		e.PollOnce(ctx)
		return e.LastSeq() == fleet.StandbyOrigin.Seq()
	}); err != nil {
		return err
	}
	s := e.Stats()
	rep.EdgeFailovers = s.OriginFailovers
	rep.FailoverResets = s.InvalResets
	// The invalidated page now misses at the edge and refills fresh
	// from the promoted origin.
	before := e.Stats().Misses
	if err := fetchOK(fleet.Fetch(ctx, "edge1", fresh)); err != nil {
		return fmt.Errorf("fresh fetch after failover: %w", err)
	}
	rep.FreshInvalServed = e.Stats().Misses == before+1

	// The zombie returns from its own durable state, below the
	// promoted epoch. The standby's watch probe fences it.
	if err := fleet.RestartPrimary(); err != nil {
		return fmt.Errorf("restarting zombie: %w", err)
	}
	zombie := fleet.Primary()
	rep.ZombieEpoch = zombie.Epoch()
	if err := tier.WaitUntil(ctx, "zombie fenced", func() bool {
		return zombie.Role() == cdn.RoleFenced
	}); err != nil {
		return err
	}
	rep.ZombieFenced = true
	rep.FenceRefusals = zombie.Stats().FenceRefusals

	// An edge that lived through the failover refuses the zombie's
	// sequence space: replay its pre-failover feed as a wire push at
	// the edge's control surface, exactly as the zombie's push loop
	// would.
	q := url.Values{}
	q.Set("since", "0")
	q.Set("seq", strconv.FormatUint(rep.PrimarySeqAtKill, 10))
	q.Set("epoch", strconv.FormatUint(rep.ZombieEpoch, 10))
	q.Set("paths", url.QueryEscape(workload.CDNPagePath(6)))
	if err := fetchOK(fleet.Fetch(ctx, "edge1", cdn.ControlPrefix+"push?"+q.Encode())); err != nil {
		return fmt.Errorf("zombie push replay: %w", err)
	}
	rep.EdgeEpochFenced = e.Stats().EpochFenced
	return nil
}

// originHAStorm: a blackholed origin behind two edges, one budgeted,
// one not. The budget caps the retry volume at burst + ratio x pulls.
func originHAStorm(ctx context.Context, rep *OriginHAReport, quick bool) error {
	fetches := 120
	if quick {
		fetches = 50
	}
	const ratio, burst = 0.2, 10

	fleet, err := tier.New(tier.Options{
		Edges: []string{"budgeted", "unbudgeted"},
		// The breaker must not open: the storm phase measures the
		// retry ladder itself, and a fleet-wide outage is exactly
		// when half-open probes keep re-walking it.
		Health: core.EndpointHealthConfig{FailureThreshold: 1 << 20},
		Edge: func(c *cdn.EdgeConfig) {
			c.TTL = time.Nanosecond // everything revalidates: every fetch pulls
			c.Retry = core.RetryPolicy{
				MaxAttempts:    4,
				AttemptTimeout: 4 * time.Millisecond,
				BaseDelay:      time.Millisecond,
				MaxDelay:       2 * time.Millisecond,
				Seed:           17,
			}
			c.RetryBudgetRatio = ratio
			if c.Name == "unbudgeted" {
				c.RetryBudgetRatio = -1
			}
		},
	})
	if err != nil {
		return err
	}
	defer fleet.Close()
	fleet.SeverOrigin()
	budgeted, unbudgeted := fleet.Edge("budgeted"), fleet.Edge("unbudgeted")

	pull := func(e *cdn.Edge) {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		e.PollOnce(pctx) // the poll path draws on the same budget
	}
	for i := 0; i < fetches; i++ {
		pull(budgeted)
		pull(unbudgeted)
	}

	rep.StormFetches = fetches
	rep.BudgetRatio = ratio
	rep.BudgetBurst = burst
	rep.BudgetedAttempts = fleet.UpDials("budgeted")
	rep.BudgetedRetries = rep.BudgetedAttempts - uint64(fetches)
	rep.UnbudgetedRetries = fleet.UpDials("unbudgeted") - uint64(fetches)
	rep.RetryCeiling = float64(burst) + ratio*float64(fetches)
	rep.BudgetExhausted = budgeted.Stats().RetryBudgetExhausted
	return nil
}

// reportOriginHA prints E25 as JSON and fails if origin high
// availability missed its bars: a restarted origin resumes its durable
// sequence and the edge reconciles with zero resets; a killed
// primary's standby promotes with zero lost sequences and the edge
// fails over to it; the restarted zombie is epoch-fenced; and the
// retry budget holds a blackhole storm's upstream attempts to burst +
// ratio x pulls.
func reportOriginHA(w io.Writer, quick bool) error {
	rep, err := OriginHASweep(quick)
	if err != nil {
		return err
	}
	if err := writeJSON(w, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "warm restart: seq %d -> %d, %d edge resets, caught up %v\n",
		rep.SeqBeforeRestart, rep.SeqAfterRestart, rep.RestartResets, rep.RestartCaughtUp)
	fmt.Fprintf(w, "failover: primary died at seq %d; standby promoted to epoch %d at seq %d "+
		"in %v (%d lost seqs); edge failovers %d, resets %d, fresh invalidation served %v\n",
		rep.PrimarySeqAtKill, rep.PromotedEpoch, rep.PromotedSeq,
		rep.FailoverAfter.Round(time.Millisecond), rep.LostSeqs,
		rep.EdgeFailovers, rep.FailoverResets, rep.FreshInvalServed)
	fmt.Fprintf(w, "fencing: zombie returned at epoch %d, fenced %v (%d refusals); "+
		"edge refused %d stale-epoch feeds\n",
		rep.ZombieEpoch, rep.ZombieFenced, rep.FenceRefusals, rep.EdgeEpochFenced)
	fmt.Fprintf(w, "retry storm: %d pulls vs blackholed origin; budgeted %d retries "+
		"(ceiling %.0f, exhausted %d), unbudgeted %d retries\n",
		rep.StormFetches, rep.BudgetedRetries, rep.RetryCeiling,
		rep.BudgetExhausted, rep.UnbudgetedRetries)
	switch {
	case rep.RestartResets != 0:
		return fmt.Errorf("origin restart flushed the edge %d times (want 0)", rep.RestartResets)
	case !rep.RestartCaughtUp:
		return fmt.Errorf("edge never reconciled the post-restart feed")
	case rep.LostSeqs != 0:
		return fmt.Errorf("failover lost %d invalidation sequences (want 0)", rep.LostSeqs)
	case rep.EdgeFailovers == 0:
		return fmt.Errorf("edge never adopted the promoted standby's epoch")
	case rep.FailoverResets != 0:
		return fmt.Errorf("failover flushed the edge %d times (want 0)", rep.FailoverResets)
	case !rep.FreshInvalServed:
		return fmt.Errorf("post-failover invalidation was not refilled fresh")
	case !rep.ZombieFenced:
		return fmt.Errorf("restarted old primary was never fenced")
	case rep.EdgeEpochFenced == 0:
		return fmt.Errorf("edge accepted the zombie's stale-epoch push")
	// The budget's whole point: retries bounded by deposit flow, not by
	// MaxAttempts x pulls. Allow one bucket of slack for rounding.
	case float64(rep.BudgetedRetries) > rep.RetryCeiling+float64(rep.BudgetBurst):
		return fmt.Errorf("budgeted storm spent %d retries (ceiling %.0f)",
			rep.BudgetedRetries, rep.RetryCeiling)
	case rep.BudgetExhausted == 0:
		return fmt.Errorf("retry budget never reported exhaustion under a storm")
	}
	return nil
}

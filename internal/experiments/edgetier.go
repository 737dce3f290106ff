package experiments

// E23: the fault-tolerant edge tier under chaos. A live origin plus a
// three-edge fleet serve a small page corpus over in-memory pipes
// while the sweep breaks things in sequence:
//
//  1. Baseline — ring-routed fetches through the healthy fleet.
//  2. Origin blackhole — every redial lands in a silent sink; warm
//     entries must keep being served (stamped stale) at >= 0.8x the
//     baseline goodput.
//  3. Edge kill — one of three edges dies mid-run; terminal clients
//     must route around it with an error rate under 1%, and removing
//     the corpse must reshard every key it owned onto exactly the
//     successor LookupN predicted.
//  4. Partition + reconcile — one edge is partitioned from the origin
//     while content is unpublished; the edge keeps serving its warm
//     copy through the partition, then applies the missed
//     invalidation on reconnect.
//
// Goodput here is served requests per wall-second. Over in-memory
// pipes the absolute numbers mean little — what the ratio measures is
// whether the breaker fails the dead origin fast enough that stale
// serving stays in the same regime as fresh serving, instead of every
// request eating a full upstream retry ladder.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"sww/internal/cdn"
	"sww/internal/tier"
	"sww/internal/workload"
)

// EdgePhase is one sweep phase's fetch outcome.
type EdgePhase struct {
	Fetches    int           `json:"fetches"`
	OK         int           `json:"ok"`
	Wall       time.Duration `json:"wall_ns"`
	GoodputRPS float64       `json:"goodput_rps"`
}

// EdgeTierReport is E23's deliverable: the acceptance numbers for the
// edge tier's availability promises.
type EdgeTierReport struct {
	Pages int `json:"pages"`
	Edges int `json:"edges"`

	Baseline  EdgePhase `json:"baseline"`
	Blackhole EdgePhase `json:"blackhole"`
	Kill      EdgePhase `json:"kill"`

	// StaleGoodputRatio compares blackhole-phase goodput to baseline;
	// StaleServes must be positive for the ratio to mean anything.
	StaleGoodputRatio float64 `json:"stale_goodput_ratio"`
	StaleServes       uint64  `json:"stale_serves"`

	// KillErrorRate is the client-visible failure fraction with one of
	// three edges dead; Failovers counts the survivor-side evidence.
	KillErrorRate  float64 `json:"kill_error_rate"`
	Failovers      uint64  `json:"failovers"`
	ReshardCorrect bool    `json:"reshard_correct"`
	ReshardKeys    int     `json:"reshard_keys"`

	// Partition phase: the warm copy held through the partition, the
	// missed invalidation landed on reconnect, and the unpublished page
	// stopped being served.
	PartitionWarmServed bool          `json:"partition_warm_served"`
	ReconciledIn        time.Duration `json:"reconciled_in_ns"`
	InvalidatedGone     bool          `json:"invalidated_gone"`
}

const edgeTierPages = tier.Pages

// runRounds fetches every page rounds times through ec and returns the
// phase outcome plus the per-path serving edge of the last round.
func runRounds(ctx context.Context, ec *cdn.EdgeClient, rounds int, check func(html string, page int) bool) EdgePhase {
	var ph EdgePhase
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < edgeTierPages; i++ {
			ph.Fetches++
			res, _, err := ec.FetchContext(ctx, workload.CDNPagePath(i))
			if err != nil {
				continue
			}
			if check != nil && !check(res.HTML, i) {
				continue
			}
			ph.OK++
		}
	}
	ph.Wall = time.Since(start)
	if s := ph.Wall.Seconds(); s > 0 {
		ph.GoodputRPS = float64(ph.OK) / s
	}
	return ph
}

func pageOK(html string, page int) bool {
	return strings.Contains(html, fmt.Sprintf("edge tier page %03d payload", page))
}

// EdgeTierSweep runs E23. quick trims the per-phase round count.
func EdgeTierSweep(quick bool) (*EdgeTierReport, error) {
	rounds := 6
	if quick {
		rounds = 3
	}
	names := []string{"edge1", "edge2", "edge3"}
	fleet, err := tier.New(tier.Options{Edges: names, Edge: func(c *cdn.EdgeConfig) {
		c.TTL = 40 * time.Millisecond
		// The edge ladder must fail a dead origin well inside one
		// terminal-client attempt, or stale serving is unreachable.
		c.PollInterval = 15 * time.Millisecond
	}})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	for _, name := range names {
		fleet.Edge(name).Start()
	}
	ec := fleet.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	rep := &EdgeTierReport{Pages: edgeTierPages, Edges: len(names)}

	// Phase 1: baseline through the healthy fleet. One unmeasured
	// round warms every edge shard; the measured rounds are the
	// steady state the blackhole phase is compared against.
	runRounds(ctx, ec, 1, nil)
	rep.Baseline = runRounds(ctx, ec, rounds, pageOK)
	if rep.Baseline.OK != rep.Baseline.Fetches {
		return rep, fmt.Errorf("baseline lost %d/%d fetches",
			rep.Baseline.Fetches-rep.Baseline.OK, rep.Baseline.Fetches)
	}

	// Phase 2: blackhole the origin. Established upstream conns die
	// and every redial hangs. The unmeasured round pays the one retry
	// ladder that trips the endpoint breakers; from then on the edges
	// fail static, and the measured steady state is stale serving at
	// near-baseline goodput.
	fleet.SeverOrigin()
	time.Sleep(60 * time.Millisecond) // let every warm entry expire
	runRounds(ctx, ec, 1, nil)
	before := fleet.Stats()
	rep.Blackhole = runRounds(ctx, ec, rounds, pageOK)
	rep.StaleServes = fleet.Stats().StaleServes - before.StaleServes
	if rep.Baseline.GoodputRPS > 0 {
		rep.StaleGoodputRatio = rep.Blackhole.GoodputRPS / rep.Baseline.GoodputRPS
	}

	// Phase 3: heal the origin and wait for every edge's poller probe
	// to notice (the phases are separate scenarios — the kill phase
	// should not also be measuring blackhole recovery), then kill one
	// of the three edges while clients keep fetching. The picker must
	// route around the corpse.
	fleet.HealOrigin()
	for _, name := range names {
		if err := tier.WaitUntil(ctx, name+" to see the origin heal",
			fleet.Edge(name).Upstream().Endpoints().AnyHealthy); err != nil {
			return rep, err
		}
	}
	victim := "edge2"
	successor := map[string]string{}
	for i := 0; i < edgeTierPages; i++ {
		path := workload.CDNPagePath(i)
		if order := ec.Ring().LookupN(path, 3); order[0] == victim {
			successor[path] = order[1]
		}
	}
	fleet.KillEdge(victim)
	rep.Kill = runRounds(ctx, ec, rounds, pageOK)
	rep.KillErrorRate = float64(rep.Kill.Fetches-rep.Kill.OK) / float64(rep.Kill.Fetches)
	rep.Failovers = fleet.Stats().Failovers

	// Declare the victim dead: the ring reshards, and every key it
	// owned must land exactly on the successor LookupN predicted.
	ec.RemovePeer(victim)
	rep.ReshardKeys = len(successor)
	rep.ReshardCorrect = len(successor) > 0
	for path, want := range successor {
		if ec.Ring().Lookup(path) != want {
			rep.ReshardCorrect = false
		}
	}

	// Phase 4: partition one survivor from the origin, unpublish a page
	// it holds warm, and verify bounded staleness then reconciliation.
	part, path := "", ""
	for i := 0; i < edgeTierPages; i++ {
		p := workload.CDNPagePath(i)
		if owner := ec.Ring().Lookup(p); owner != "" {
			part, path = owner, p
			break
		}
	}
	if part == "" {
		return rep, fmt.Errorf("no ring owner found for the partition phase")
	}
	if _, _, err := ec.FetchContext(ctx, path); err != nil {
		return rep, fmt.Errorf("pre-partition warm fetch: %w", err)
	}
	fleet.Link(part).Up.Sever()
	fleet.Primary().Server().RemovePage(path) // unpublished while the edge cannot hear
	time.Sleep(60 * time.Millisecond)
	if res, _, err := ec.FetchContext(ctx, path); err == nil && pageOK(res.HTML, pageIndex(path)) {
		rep.PartitionWarmServed = true
	}

	fleet.Link(part).Up.Restart()
	healed := time.Now()
	if err := tier.WaitUntil(ctx, part+" to reconcile", func() bool {
		return fleet.Edge(part).LastSeq() >= fleet.Primary().Seq()
	}); err != nil {
		return rep, err
	}
	rep.ReconciledIn = time.Since(healed)
	if _, _, err := ec.FetchContext(ctx, path); err != nil {
		rep.InvalidatedGone = true
	}
	return rep, nil
}

// reportEdgeTier prints E23 as JSON and fails if the edge tier missed
// its availability bars: stale serving at >= 0.8x baseline goodput
// through an origin blackhole, a sub-1% client error rate with one of
// three edges dead, a reshard matching LookupN's prediction, and a
// partition-delayed invalidation reconciled on reconnect.
func reportEdgeTier(w io.Writer, quick bool) error {
	rep, err := EdgeTierSweep(quick)
	if err != nil {
		return err
	}
	if err := writeJSON(w, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "goodput: baseline %.0f/s, origin blackholed %.0f/s (%.2fx, %d stale serves)\n",
		rep.Baseline.GoodputRPS, rep.Blackhole.GoodputRPS, rep.StaleGoodputRatio, rep.StaleServes)
	fmt.Fprintf(w, "edge kill: error rate %.2f%% over %d fetches, %d failovers; "+
		"reshard of %d keys correct: %v\n",
		rep.KillErrorRate*100, rep.Kill.Fetches, rep.Failovers, rep.ReshardKeys, rep.ReshardCorrect)
	fmt.Fprintf(w, "partition: warm copy served %v, reconciled in %v, unpublished page gone %v\n",
		rep.PartitionWarmServed, rep.ReconciledIn.Round(time.Millisecond), rep.InvalidatedGone)
	switch {
	case rep.StaleServes == 0:
		return fmt.Errorf("origin blackhole produced no stale serves")
	case rep.StaleGoodputRatio < 0.8:
		return fmt.Errorf("stale goodput fell to %.2fx of baseline (want >= 0.8)", rep.StaleGoodputRatio)
	case rep.KillErrorRate >= 0.01:
		return fmt.Errorf("error rate with one edge dead = %.2f%% (want < 1%%)", rep.KillErrorRate*100)
	case !rep.ReshardCorrect:
		return fmt.Errorf("reshard after edge death did not match LookupN's prediction")
	case !rep.PartitionWarmServed:
		return fmt.Errorf("partitioned edge dropped its warm copy")
	case !rep.InvalidatedGone:
		return fmt.Errorf("invalidation issued during the partition never landed")
	}
	return nil
}

func pageIndex(path string) int {
	var i int
	fmt.Sscanf(path, "/cdn/page-%03d", &i)
	return i
}

package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sww/internal/telemetry"
)

// counters reads every public count the layers keep, under the
// per-layer metric's own name. The ledger reports their deltas over a
// window; the validity guards read the same deltas.
type counters map[string]float64

func (t *topology) counters() counters {
	ov := t.srv.OverloadStats()
	art := t.srv.ArtifactCacheStats()
	c := counters{
		"overload.gen_runs":        float64(ov.GenRuns),
		"overload.coalesced":       float64(ov.Coalesced),
		"overload.cache_hits":      float64(ov.CacheHits),
		"overload.cache_evictions": float64(ov.CacheEvictions),
		"overload.admit_rejects":   float64(ov.AdmitRejects),
		"overload.queue_timeouts":  float64(ov.QueueTimeouts),
		"overload.shed_503":        float64(ov.Shed503),
		"genai.artifact_hits":      float64(art.Hits),
		"genai.artifact_misses":    float64(art.Misses),
	}
	for _, e := range t.edges {
		s := e.Stats()
		c["cdn.edge_requests"] += float64(s.Requests)
		c["cdn.edge_hits"] += float64(s.Hits)
		c["cdn.edge_misses"] += float64(s.Misses)
		c["cdn.peer_fills"] += float64(s.PeerFills)
		c["cdn.stale_serves"] += float64(s.StaleServes)
		c["cdn.upstream_errors"] += float64(s.UpstreamErrors)
		c["cdn.client_failovers"] += float64(s.Failovers)
		c["cdn.inval_applied"] += float64(s.InvalApplied)
		c["cdn.push_applied"] += float64(s.PushApplied)
		c["cdn.push_gaps"] += float64(s.PushGaps)
		c["cdn.poll_resets"] += float64(s.InvalResets)
	}
	if t.origin != nil {
		c["cdn.inval_issued"] = float64(t.origin.Stats().Invalidations)
	}
	if t.tel != nil {
		reg := t.tel.Registry.Snapshot()
		for _, o := range []string{"prompt", "traditional", "cached", "shed", "error"} {
			c["core.outcome_"+o] = float64(reg.Counters[telemetry.WithLabel("sww_requests_total", "outcome", o)])
		}
		c["telemetry.trace_count"] = float64(t.tel.Traces.Total())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["runtime.gc_cycles"] = float64(ms.NumGC)
	c["runtime.gc_pause_us"] = float64(ms.PauseTotalNs) / 1e3
	return c
}

func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// validate reports whether the window did what the workload is for,
// given the counter deltas over it and the fetches it completed. A
// fetch in flight at a boundary is counted by the server in one window
// and by its client in the next, so the cold share allows one per
// client.
func (t *topology) validate(d counters, fetches int64) error {
	hitRatio := ratio(d["cdn.edge_hits"], d["cdn.edge_requests"])
	generated := d["overload.gen_runs"] + float64(len(t.clients))
	switch {
	case t.sp.edges == 0 && !t.sp.cold && d["overload.gen_runs"] != 0:
		return fmt.Errorf("%s: %v generations ran, want none", t.sp.name, d["overload.gen_runs"])
	case t.sp.edges > 0 && d["cdn.client_failovers"] != 0:
		return fmt.Errorf("%s: %v fetches reached an edge that does not own the path", t.sp.name, d["cdn.client_failovers"])
	case t.sp.edges > 0 && !t.sp.churn && (hitRatio < 0.99 || d["cdn.edge_misses"] != 0):
		return fmt.Errorf("%s: edge hit ratio %.4f with %v origin pulls, want >= 0.99 and none", t.sp.name, hitRatio, d["cdn.edge_misses"])
	case t.sp.churn && (d["cdn.push_gaps"] != 0 || d["cdn.poll_resets"] != 0):
		return fmt.Errorf("%s: %v push gaps, %v poll resets, want none", t.sp.name, d["cdn.push_gaps"], d["cdn.poll_resets"])
	case t.sp.churn && (d["cdn.inval_issued"] == 0 || d["cdn.edge_misses"] == 0):
		return fmt.Errorf("%s: %v invalidations caused %v misses, want both above zero", t.sp.name, d["cdn.inval_issued"], d["cdn.edge_misses"])
	case t.sp.cold && (generated < 0.99*float64(fetches) || d["overload.cache_hits"] != 0):
		return fmt.Errorf("%s: %v generations and %v cached replies for %d fetches, want >= 0.99 and none",
			t.sp.name, d["overload.gen_runs"], d["overload.cache_hits"], fetches)
	}
	return nil
}

// churnEvery paces the invalidator by work done, not by the clock: one
// invalidation per churnEvery fetches completed tier-wide, about one a
// millisecond at this machine's ~30k fetches/s. Paced by a timer, the
// share of fetches that miss would fall as the program got faster and
// rise when the host slows it, and the workload would not be the same
// work twice. Every timedEvery-th invalidation is timed until every
// edge has applied it.
const (
	churnEvery = 32
	timedEvery = 10
)

// startChurn runs the churn workload's invalidator beside the readers:
// Origin.Invalidate on a Zipf-drawn path each time the clients signal
// that churnEvery more fetches are done. The sampled convergence wait
// is a yielding spin, so it costs a few percent of a core. The returned
// func stops the invalidator and waits for it.
func (t *topology) startChurn() (stop func()) {
	if !t.sp.churn {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 1; ; n++ {
			select {
			case <-t.churnDue:
			case <-quit:
				return
			}
			path := t.paths[t.churnSrc.next()]
			start := time.Now()
			t.origin.Invalidate([]string{path})
			if n%timedEvery != 0 {
				continue
			}
			seq := t.origin.Seq()
			for !t.applied(seq) && time.Since(start) < time.Second {
				runtime.Gosched()
			}
			t.convergeMu.Lock()
			t.converge = append(t.converge, span{start, time.Since(start)})
			t.convergeMu.Unlock()
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// applied reports whether every edge has applied invalidation seq.
func (t *topology) applied(seq uint64) bool {
	for _, e := range t.edges {
		if e.LastSeq() < seq {
			return false
		}
	}
	return true
}

// drain waits until every edge has applied every invalidation issued.
func (t *topology) drain() error {
	if t.origin == nil {
		return nil
	}
	seq := t.origin.Seq()
	for deadline := time.Now().Add(2 * time.Second); !t.applied(seq); {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: edges did not converge on invalidation %d within 2s of the window's end", t.sp.name, seq)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// convergeWithin returns the sorted convergence samples that started in
// [from, to).
func (t *topology) convergeWithin(from, to time.Time) []time.Duration {
	t.convergeMu.Lock()
	defer t.convergeMu.Unlock()
	var out []time.Duration
	for _, s := range t.converge {
		if !s.start.Before(from) && s.start.Before(to) {
			out = append(out, s.dur)
		}
	}
	slices.Sort(out)
	return out
}

package core

import (
	"context"
	"time"

	"sww/internal/http2"
	"sww/internal/telemetry"
)

// Request outcomes, as they appear in the outcome label of
// sww_requests_total / sww_request_duration_seconds and as the final
// outcome on /tracez traces. One request gets exactly one outcome.
const (
	OutcomePrompt      = "prompt"        // generative: prompts served
	OutcomePolicyFlip  = "policy-flip"   // shed rung 3: capable client, pre-rendered bytes
	OutcomeTraditional = "traditional"   // rendered content (originals or fresh generation)
	OutcomeCached      = "cached"        // rendered content from the generated-content LRU
	OutcomeShed        = "shed"          // shed rung 4: 503 + Retry-After
	OutcomeAsset       = "asset"         // a media asset, not a page
	OutcomeNotFound    = "not-found"     // 404
	OutcomeError       = "error"         // 405 / 500
	OutcomeRefused     = "abuse-refused" // stream refused before reaching the handler
)

// requestOutcomes drives pre-registration: every series exists at zero
// from boot, so scrapes never discover families lazily.
var requestOutcomes = []string{
	OutcomePrompt, OutcomePolicyFlip, OutcomeTraditional, OutcomeCached,
	OutcomeShed, OutcomeAsset, OutcomeNotFound, OutcomeError, OutcomeRefused,
}

// EnableTelemetry attaches an ops telemetry set to the server: the
// overload and artifact-cache counters are adopted into its registry
// (same atomics, now scrapable), cache and shed-level gauges are
// registered, and every request from here on carries a trace through
// negotiate → lookup → admission → generate → serve. Call it after
// SetOverload / SetArtifactCacheBytes — replacing those subsystems
// later detaches their adopted counters. A nil set detaches telemetry.
func (s *Server) EnableTelemetry(set *telemetry.Set) {
	s.mu.Lock()
	s.tel = set
	s.mu.Unlock()
	if set == nil {
		return
	}
	reg := set.Registry
	s.Overload().Counters().Register(reg)
	if c := s.ArtifactCache(); c != nil {
		c.Register(reg)
	}
	g := s.Overload()
	reg.GaugeFunc("sww_overload_level", func() float64 { return float64(g.Level()) })
	reg.GaugeFunc("sww_traditional_cache_bytes", func() float64 { return float64(g.Cache().Bytes()) })
	reg.GaugeFunc("sww_traditional_cache_entries", func() float64 { return float64(g.Cache().Len()) })
	for _, o := range requestOutcomes {
		reg.Counter(telemetry.WithLabel("sww_requests_total", "outcome", o))
		reg.Histogram(telemetry.WithLabel("sww_request_duration_seconds", "outcome", o))
	}
	reg.Histogram("sww_generation_duration_seconds")
	reg.Histogram("sww_admission_wait_seconds")
}

// Telemetry returns the attached set, nil when telemetry is off. All
// instrument and trace methods are nil-safe, so callers thread the
// result through without enabled-checks.
func (s *Server) Telemetry() *telemetry.Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tel
}

// traceKey carries the request trace through resolve and down into
// the admission/generation path.
type traceKey struct{}

func withTrace(ctx context.Context, tr *telemetry.Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// traceFrom returns the request trace, or nil — on which every Trace
// method no-ops — when telemetry is off or ctx carries none.
func traceFrom(ctx context.Context) *telemetry.Trace {
	tr, _ := ctx.Value(traceKey{}).(*telemetry.Trace)
	return tr
}

// beginRequest opens a trace for one request and stamps the SETTINGS
// negotiation result on it. An inline attempt's trace stays out of the
// ring until finishRequest: a declined attempt just drops it.
func (s *Server) beginRequest(ctx context.Context, proto, path string, peerGen http2.GenAbility, inline bool) (context.Context, *telemetry.Trace, time.Time) {
	var tr *telemetry.Trace
	if set := s.Telemetry(); set != nil {
		if inline {
			tr = set.Traces.Open(proto, path)
		} else {
			tr = set.Trace(proto, path)
		}
		tr.Note("negotiate", "peer "+peerGen.String())
	}
	return withTrace(ctx, tr), tr, time.Now()
}

// finishRequest closes the trace with the payload's outcome and feeds
// the per-outcome request counter and latency histogram. For an inline
// attempt it is also the moment the attempt became a served request:
// what it held back while it could still be declined lands here.
func (s *Server) finishRequest(tr *telemetry.Trace, pl payload, start time.Time, inline bool) {
	set := s.Telemetry()
	if inline {
		if pl.outcome == OutcomeCached {
			s.Overload().Counters().CacheHits.Add(1)
		}
		if set != nil {
			set.Traces.Publish(tr)
		}
	}
	tr.Finish(pl.outcome)
	if set == nil {
		return
	}
	set.Registry.Counter(telemetry.WithLabel("sww_requests_total", "outcome", pl.outcome)).Inc()
	set.Registry.Histogram(telemetry.WithLabel("sww_request_duration_seconds", "outcome", pl.outcome)).Observe(time.Since(start))
}

// observeDuration feeds one of the stage histograms when telemetry is
// attached.
func (s *Server) observeDuration(name string, d time.Duration) {
	if set := s.Telemetry(); set != nil {
		set.Registry.Histogram(name).Observe(d)
	}
}

// clientMetrics is the ResilientClient's instrument set. The zero
// value (all nil) no-ops, so the fetch path records unconditionally.
type clientMetrics struct {
	attempts *telemetry.Counter   // fetch attempts, first try included
	retries  *telemetry.Counter   // attempts beyond the first
	degrades *telemetry.Counter   // generative → traditional ladder steps
	busy     *telemetry.Counter   // 503 busy replies waited out
	backoff  *telemetry.Histogram // sleeps between attempts
}

// SetTelemetry registers the client's counters and backoff histogram
// on the set's registry. Call before the first fetch; a nil set
// detaches. The instruments keep the adopted-atomics property: Stats
// accessors and scrapes read the same counters.
func (rc *ResilientClient) SetTelemetry(set *telemetry.Set) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.tel = set
	if set == nil {
		rc.met = clientMetrics{}
		return
	}
	reg := set.Registry
	rc.met = clientMetrics{
		attempts: reg.Counter("sww_client_attempts_total"),
		retries:  reg.Counter("sww_client_retries_total"),
		degrades: reg.Counter("sww_client_degrades_total"),
		busy:     reg.Counter("sww_client_busy_total"),
		backoff:  reg.Histogram("sww_client_backoff_seconds"),
	}
	if rc.endpoints != nil {
		// Per-endpoint breaker state: sww_endpoint_healthy and friends,
		// so /statusz shows which peers this instance considers dead.
		rc.endpoints.Register(reg)
	}
}

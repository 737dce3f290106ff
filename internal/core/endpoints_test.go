package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sww/internal/telemetry"
)

// fakeClock is an injectable clock for breaker-cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestEndpoint(cfg EndpointHealthConfig, clock *fakeClock) *Endpoint {
	set := NewEndpointSet(cfg)
	set.now = clock.now
	return set.Add("origin", nil)
}

// TestEndpointBreakerThreshold: consecutive failures open the
// endpoint's breaker; a single success closes it and resets the count.
func TestEndpointBreakerThreshold(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	ep := newTestEndpoint(EndpointHealthConfig{FailureThreshold: 3, ProbeCooldown: time.Second}, clock)

	ep.ReportFailure()
	ep.ReportFailure()
	if !ep.Healthy() {
		t.Fatal("down after 2 of 3 failures")
	}
	ep.ReportSuccess()
	ep.ReportFailure()
	ep.ReportFailure()
	if !ep.Healthy() {
		t.Fatal("success did not reset the consecutive count")
	}
	ep.ReportFailure()
	if ep.Healthy() {
		t.Fatal("still healthy after 3 consecutive failures")
	}
	if h := ep.Health(); h.Failures != 5 || h.Successes != 1 {
		t.Fatalf("counters = %+v", h)
	}
}

// TestEndpointProbeCooldown: a down endpoint is unusable until the
// cooldown passes, then admits exactly one probe at a time; the probe
// outcome decides whether it reopens for everyone.
func TestEndpointProbeCooldown(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	ep := newTestEndpoint(EndpointHealthConfig{FailureThreshold: 1, ProbeCooldown: time.Second}, clock)

	ep.ReportFailure()
	if ep.usable() {
		t.Fatal("usable while down and cooling")
	}
	clock.advance(2 * time.Second)
	if !ep.usable() {
		t.Fatal("probe not admitted after cooldown")
	}
	if ep.usable() {
		t.Fatal("second probe admitted while first is in flight")
	}
	// Probe fails: back to cooling.
	ep.ReportFailure()
	if ep.usable() {
		t.Fatal("usable right after failed probe")
	}
	clock.advance(2 * time.Second)
	if !ep.usable() {
		t.Fatal("no second probe after another cooldown")
	}
	ep.ReportSuccess()
	if !ep.Healthy() || !ep.usable() {
		t.Fatal("successful probe did not reopen the endpoint")
	}
	if h := ep.Health(); h.Probes != 2 {
		t.Fatalf("probes = %d, want 2", h.Probes)
	}
}

// TestEndpointSetPick: Pick is sticky to the preferred endpoint,
// fails over in registration order when it is down, and returns
// ErrNoEndpoints only when the whole set is down and cooling. (The
// breaker itself is overload's TestBreakerTransitions.)
func TestEndpointSetPick(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	set := NewEndpointSet(EndpointHealthConfig{FailureThreshold: 1, ProbeCooldown: time.Minute})
	set.now = clock.now
	a := set.Add("a", nil)
	b := set.Add("b", nil)
	var edges []bool // a's healthy↔down hook
	a.SetOnStateChange(func(healthy bool) { edges = append(edges, healthy) })

	ep, err := set.Pick("b")
	if err != nil || ep.Name != "b" {
		t.Fatalf("Pick(b) = %v, %v", ep, err)
	}
	b.ReportFailure()
	ep, err = set.Pick("b")
	if err != nil || ep.Name != "a" {
		t.Fatalf("failover Pick = %v, %v, want a", ep, err)
	}
	a.ReportFailure()
	if _, err := set.Pick("a"); !errors.Is(err, ErrNoEndpoints) {
		t.Fatalf("whole set down: err = %v", err)
	}
	// Cooldown passes: a probe slot opens the set again.
	clock.advance(2 * time.Minute)
	ep, err = set.Pick("a")
	if err != nil || ep.Name != "a" {
		t.Fatalf("post-cooldown Pick = %v, %v", ep, err)
	}
	// The probe's success brings a back; the counters saw every report
	// and the one probe.
	a.ReportSuccess()
	if h := a.Health(); !h.Healthy || h.Failures != 1 || h.Successes != 1 || h.Probes != 1 {
		t.Fatalf("a after its probe = %+v", h)
	}
	if len(edges) != 2 || edges[0] || !edges[1] {
		t.Fatalf("a's state-change hook saw %v, want [false true]", edges)
	}
}

// TestEndpointSetRegister: the breaker state lands on a registry as
// per-endpoint gauges and counters — the satellite requirement that
// /statusz shows which peer an instance considers dead.
func TestEndpointSetRegister(t *testing.T) {
	set := NewEndpointSet(EndpointHealthConfig{FailureThreshold: 1})
	a := set.Add("origin-a", nil)
	set.Add("origin-b", nil)
	reg := telemetry.NewRegistry()
	set.Register(reg)
	a.ReportFailure()

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`sww_endpoint_healthy{endpoint="origin-a"} 0`,
		`sww_endpoint_healthy{endpoint="origin-b"} 1`,
		`sww_endpoint_failures_total{endpoint="origin-a"} 1`,
		`sww_endpoint_consecutive_failures{endpoint="origin-a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

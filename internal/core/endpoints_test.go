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
	usable := func() bool { ok, _ := ep.usable(); return ok }

	ep.ReportFailure()
	if usable() {
		t.Fatal("usable while down and cooling")
	}
	clock.advance(2 * time.Second)
	if !usable() {
		t.Fatal("probe not admitted after cooldown")
	}
	if usable() {
		t.Fatal("second probe admitted while first is in flight")
	}
	// Probe fails: back to cooling.
	ep.ReportFailure()
	if usable() {
		t.Fatal("usable right after failed probe")
	}
	clock.advance(2 * time.Second)
	if !usable() {
		t.Fatal("no second probe after another cooldown")
	}
	ep.ReportSuccess()
	if !ep.Healthy() || !usable() {
		t.Fatal("successful probe did not reopen the endpoint")
	}
	if h := ep.Health(); h.Probes != 2 {
		t.Fatalf("probes = %d, want 2", h.Probes)
	}
}

// TestEndpointSetPick: Pick is sticky to the preferred endpoint,
// fails over in registration order when it is down, says which pick
// claimed a probe slot, and returns ErrNoEndpoints only when the
// whole set is down and cooling. (The
// breaker itself is overload's TestBreakerTransitions.)
func TestEndpointSetPick(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	set := NewEndpointSet(EndpointHealthConfig{FailureThreshold: 1, ProbeCooldown: time.Minute})
	set.now = clock.now
	a := set.Add("a", nil)
	b := set.Add("b", nil)

	ep, probe, err := set.Pick("b")
	if err != nil || ep.Name != "b" || probe {
		t.Fatalf("Pick(b) = %v, probe %v, %v", ep, probe, err)
	}
	b.ReportFailure()
	ep, probe, err = set.Pick("b")
	if err != nil || ep.Name != "a" || probe {
		t.Fatalf("failover Pick = %v, probe %v, %v, want a", ep, probe, err)
	}
	a.ReportFailure()
	if _, _, err := set.Pick("a"); !errors.Is(err, ErrNoEndpoints) {
		t.Fatalf("whole set down: err = %v", err)
	}
	// Cooldown passes: a probe slot opens the set again.
	clock.advance(2 * time.Minute)
	ep, probe, err = set.Pick("a")
	if err != nil || ep.Name != "a" || !probe {
		t.Fatalf("post-cooldown Pick = %v, probe %v, %v, want a's probe", ep, probe, err)
	}
	// The probe's success brings a back; the counters saw every report
	// and the one probe.
	a.ReportSuccess()
	if h := a.Health(); !h.Healthy || h.Failures != 1 || h.Successes != 1 || h.Probes != 1 {
		t.Fatalf("a after its probe = %+v", h)
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

package core

import (
	"strings"
	"testing"
	"time"

	"sww/internal/telemetry"
)

func newTestEndpoint(cfg EndpointHealthConfig) *Endpoint {
	return NewEndpointSet(cfg).Add("origin", nil)
}

// TestEndpointBreakerThreshold: consecutive failures open the
// endpoint's breaker; a single success closes it and resets the count.
func TestEndpointBreakerThreshold(t *testing.T) {
	ep := newTestEndpoint(EndpointHealthConfig{FailureThreshold: 3, ProbeCooldown: time.Second})

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

package core

// Per-endpoint health for multi-node fetching: the edge tier's
// client side (edge→origin pulls, terminal-client→edge picks) needs
// to know which peers it currently considers dead, fail over away
// from them, and probe them back to life. Each Endpoint runs an
// overload.Breaker: FailureThreshold straight failures mark it down,
// after ProbeCooldown one caller at a time may try it again
// (half-open probe), and one probe success brings it back. The state
// is exported as telemetry gauges so /statusz shows exactly which
// origin or edge an instance has written off.

import (
	"errors"
	"sync"
	"time"

	"sww/internal/overload"
	"sww/internal/telemetry"
)

// ErrNoEndpoints is returned when every endpoint in a set is down and
// none is due a probe.
var ErrNoEndpoints = errors.New("core: no healthy endpoint")

// EndpointHealthConfig shapes the per-endpoint breaker. The zero
// value means 3 consecutive failures to go down and a 500ms probe
// cooldown.
type EndpointHealthConfig struct {
	// FailureThreshold is the consecutive-failure count that marks an
	// endpoint down. <= 0 means 3.
	FailureThreshold int
	// ProbeCooldown is how long a down endpoint rests before one
	// probe may try it again. <= 0 means 500ms.
	ProbeCooldown time.Duration
}

// breaker builds one endpoint's breaker: a single probe success
// brings a down endpoint back.
func (c EndpointHealthConfig) breaker(now func() time.Time) *overload.Breaker {
	threshold, cooldown := c.FailureThreshold, c.ProbeCooldown
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 500 * time.Millisecond
	}
	return overload.NewBreaker(threshold, cooldown, 1, now)
}

// An Endpoint is one named dialable peer with breaker state. It is
// healthy while its breaker is closed; an outcome reported while it is
// down moves it only as the answer to a claimed probe (see
// overload.Breaker).
type Endpoint struct {
	Name string
	Dial DialFunc

	br *overload.Breaker

	failures  telemetry.Counter
	successes telemetry.Counter
	probes    telemetry.Counter
}

// EndpointHealth is one endpoint's externally visible state.
type EndpointHealth struct {
	Name                string
	Healthy             bool
	ConsecutiveFailures int
	Failures            uint64
	Successes           uint64
	Probes              uint64
}

// usable reports whether a caller may try this endpoint now, and
// whether that try is its probe. A down endpoint becomes usable again
// one probe at a time once its cooldown has passed; the probe slot is
// claimed here and answered by the next ReportSuccess/ReportFailure,
// or given back by the breaker's Cancel.
func (e *Endpoint) usable() (ok, probe bool) {
	probe, err := e.br.Allow()
	if probe {
		e.probes.Add(1)
	}
	return err == nil, probe
}

// ReportSuccess records a completed request: the endpoint is healthy.
func (e *Endpoint) ReportSuccess() {
	e.successes.Add(1)
	e.br.Record(true)
}

// ReportFailure records a transport-level failure against the
// endpoint; FailureThreshold in a row mark it down.
func (e *Endpoint) ReportFailure() {
	e.failures.Add(1)
	e.br.Record(false)
}

// Healthy reports whether the endpoint is currently considered up.
func (e *Endpoint) Healthy() bool { return e.br.State() == overload.BreakerClosed }

// Health snapshots the endpoint state.
func (e *Endpoint) Health() EndpointHealth {
	return EndpointHealth{
		Name:                e.Name,
		Healthy:             e.Healthy(),
		ConsecutiveFailures: e.br.Failures(),
		Failures:            e.failures.Load(),
		Successes:           e.successes.Load(),
		Probes:              e.probes.Load(),
	}
}

// An EndpointSet is an ordered collection of endpoints sharing one
// health config — the client-side picture of a replica fleet.
type EndpointSet struct {
	mu          sync.Mutex
	eps         []*Endpoint
	by          map[string]*Endpoint
	cfgTemplate EndpointHealthConfig
	now         func() time.Time // the breakers' clock; nil is the wall clock
}

// NewEndpointSet builds an empty set; populate it with Add. cfg is
// applied to every endpoint added later (zero value = defaults).
func NewEndpointSet(cfg EndpointHealthConfig) *EndpointSet {
	return &EndpointSet{by: map[string]*Endpoint{}, cfgTemplate: cfg}
}

// Add registers one endpoint and returns it.
func (s *EndpointSet) Add(name string, dial DialFunc) *Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep, ok := s.by[name]; ok {
		ep.Dial = dial
		return ep
	}
	ep := &Endpoint{Name: name, Dial: dial, br: s.cfgTemplate.breaker(s.now)}
	s.eps = append(s.eps, ep)
	s.by[name] = ep
	return ep
}

// Pick returns a usable endpoint, preferring the named one (sticky
// connections), then the others in registration order, and whether
// the pick claimed its probe slot. It returns ErrNoEndpoints when
// everything is down and resting.
func (s *EndpointSet) Pick(prefer string) (*Endpoint, bool, error) {
	s.mu.Lock()
	ordered := make([]*Endpoint, 0, len(s.eps))
	if ep, ok := s.by[prefer]; ok {
		ordered = append(ordered, ep)
	}
	for _, ep := range s.eps {
		if ep.Name != prefer {
			ordered = append(ordered, ep)
		}
	}
	s.mu.Unlock()
	for _, ep := range ordered {
		if ok, probe := ep.usable(); ok {
			return ep, probe, nil
		}
	}
	return nil, false, ErrNoEndpoints
}

// AnyHealthy reports whether at least one endpoint is currently up,
// without claiming a probe slot. Serve paths use it to fail static: a
// request that would land on an all-down set serves what it has
// locally instead of parking on a retry ladder, and leaves probing to
// background work.
func (s *EndpointSet) AnyHealthy() bool {
	// The set only grows, and Add writes nothing below the length read
	// here, so the slice stays valid without the lock and without a copy.
	s.mu.Lock()
	eps := s.eps
	s.mu.Unlock()
	for _, ep := range eps {
		if ep.Healthy() {
			return true
		}
	}
	return false
}

// Register exports per-endpoint health onto reg: a 0/1
// sww_endpoint_healthy gauge and consecutive-failure gauge per
// endpoint (label "endpoint"), plus adopted success/failure/probe
// counters — the very atomics the picker updates.
func (s *EndpointSet) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	eps := append([]*Endpoint(nil), s.eps...)
	s.mu.Unlock()
	for _, ep := range eps {
		reg.GaugeFunc(telemetry.WithLabel("sww_endpoint_healthy", "endpoint", ep.Name), func() float64 {
			if ep.Healthy() {
				return 1
			}
			return 0
		})
		reg.GaugeFunc(telemetry.WithLabel("sww_endpoint_consecutive_failures", "endpoint", ep.Name), func() float64 {
			return float64(ep.br.Failures())
		})
		reg.Adopt(telemetry.WithLabel("sww_endpoint_failures_total", "endpoint", ep.Name), &ep.failures)
		reg.Adopt(telemetry.WithLabel("sww_endpoint_successes_total", "endpoint", ep.Name), &ep.successes)
		reg.Adopt(telemetry.WithLabel("sww_endpoint_probes_total", "endpoint", ep.Name), &ep.probes)
	}
}

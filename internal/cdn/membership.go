package cdn

// Live peer membership for the self-healing edge mesh. The static
// -peers list the tier booted with rots the moment an edge dies or a
// new one joins; this layer keeps each node's ring current. Every
// dialable peer is one core.Endpoint in a one-endpoint set behind its
// own ResilientClient, built as EdgeClient.AddPeer builds its edges.
// Heartbeat probes and peer-fill both go through that client, so the
// endpoint's breaker is the peer's one failure detector, and the
// peer's place on the ladder is read off it:
//
//	alive   — the breaker is closed: a peer-fill candidate.
//	suspect — the breaker is open after suspectFailures failures in a
//	          row, from probes or peer-fill. The peer stays on the
//	          ring (placement should not churn on one lost heartbeat)
//	          but peer-fill skips it.
//	dead    — the run has reached deadFailures. The sweep removes the
//	          peer from the ring once, resharding its keys onto the
//	          survivors.
//
// One probe success closes the breaker, and the sweep puts a dead
// peer back on the ring, once. Peer-fill asks only healthy peers, so
// the sweep is the only prober of an open breaker: the cooldown is
// over by the next sweep, every sweep after a trip makes a real
// probe, and only probes carry a run past suspectFailures — a burst
// of data-path errors cannot reshard the fleet. At heartbeat h a
// silent peer is suspect after about 3h and dead after about 6h.

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/telemetry"
)

// MemberState is one peer's position on the alive/suspect/dead ladder.
type MemberState int32

const (
	MemberAlive MemberState = iota
	MemberSuspect
	MemberDead
)

func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	}
	return "unknown"
}

// suspectFailures failures in a row open a peer's breaker (suspect);
// deadFailures declare it dead.
const (
	suspectFailures = 3
	deadFailures    = 2 * suspectFailures
)

// meshHealth is every mesh peer's breaker. Its cooldown is over by the
// next sweep, so that sweep's probe is the half-open one.
var meshHealth = core.EndpointHealthConfig{FailureThreshold: suspectFailures, ProbeCooldown: time.Nanosecond}

// meshPeer is one dialable fleet peer: the transport behind both the
// heartbeat and peer-fill, and the breaker they feed.
type meshPeer struct {
	name string
	ep   *core.Endpoint
	rc   *core.ResilientClient
	seen MemberState // as of the last sweep; guarded by Membership.mu
}

// newMeshPeer builds one peer's client: a single attempt per request,
// bounded by attempt.
func newMeshPeer(name string, dial core.DialFunc, attempt time.Duration) *meshPeer {
	set := core.NewEndpointSet(meshHealth)
	ep := set.Add(name, dial)
	rc := core.NewResilientClientEndpoints(set, device.Workstation, nil,
		core.RetryPolicy{MaxAttempts: 1, AttemptTimeout: attempt})
	return &meshPeer{name: name, ep: ep, rc: rc}
}

// state reads the peer's ladder position off its breaker.
func (p *meshPeer) state() MemberState {
	h := p.ep.Health()
	switch {
	case h.Healthy:
		return MemberAlive
	case h.ConsecutiveFailures >= deadFailures:
		return MemberDead
	}
	return MemberSuspect
}

// probeHealth asks a peer's health endpoint through rc; nil means it
// answered 200.
func probeHealth(ctx context.Context, rc *core.ResilientClient) error {
	raw, err := rc.FetchRawContext(ctx, healthPath)
	if err == nil && raw.Status != 200 {
		return errStatus(raw.Status)
	}
	return err
}

type errStatus int

func (e errStatus) Error() string { return "unexpected status " + strconv.Itoa(int(e)) }

// A Membership is one edge's view of its mesh peers and the ring
// surgery that follows their deaths. All methods are safe for
// concurrent use.
type Membership struct {
	ring  *Ring
	peers map[string]*meshPeer

	mu sync.Mutex // guards each peer's seen

	probeFails  telemetry.Counter
	transitions telemetry.Counter
}

// Counts returns how many peers are in each state.
func (m *Membership) Counts() (alive, suspect, dead int) {
	for _, p := range m.peers {
		switch p.state() {
		case MemberAlive:
			alive++
		case MemberSuspect:
			suspect++
		case MemberDead:
			dead++
		}
	}
	return
}

// Tick runs one sweep: probe every peer concurrently (each probe is
// bounded by its client's attempt timeout), then take each peer that
// died since the last sweep off the ring and put each that came back
// on it. Exported so tests and experiment harnesses can drive
// membership deterministically.
func (m *Membership) Tick(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range m.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if probeHealth(ctx, p.rc) != nil {
				m.probeFails.Add(1)
			}
		}()
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		next := p.state()
		if next == p.seen {
			continue
		}
		m.transitions.Add(1)
		switch {
		case next == MemberDead:
			m.ring.Remove(p.name)
		case p.seen == MemberDead: // only a probe success ends a run
			m.ring.Add(p.name)
		}
		p.seen = next
	}
}

// Register exports the membership counters and state gauges onto reg.
// Per-peer state is a numeric gauge (0 alive, 1 suspect, 2 dead) so a
// dashboard can alert on any nonzero value.
func (m *Membership) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Adopt("sww_member_probe_failures_total", &m.probeFails)
	reg.Adopt("sww_member_transitions_total", &m.transitions)
	reg.GaugeFunc("sww_member_alive", func() float64 { a, _, _ := m.Counts(); return float64(a) })
	reg.GaugeFunc("sww_member_suspect", func() float64 { _, s, _ := m.Counts(); return float64(s) })
	reg.GaugeFunc("sww_member_dead", func() float64 { _, _, d := m.Counts(); return float64(d) })
	for n, p := range m.peers {
		reg.GaugeFunc(telemetry.WithLabel("sww_member_peer_state", "peer", n), func() float64 {
			return float64(p.state())
		})
	}
}

// nameSeed is the jitter seed of the node called name (an edge, the
// standby): two nodes configured identically still jitter apart. It is
// masked positive and never 0.
func nameSeed(name string) int64 {
	s := int64(ringHash("jitter|"+name) & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

// newJitterRng builds the seeded source behind a jittered loop; each
// loop gets its own so none contend on a shared lock.
func newJitterRng(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// jitterDuration spreads d uniformly over ±20% so loops seeded at the
// same instant (a fleet booted by one script, a herd of pollers) fall
// out of phase instead of synchronizing their load spikes.
func jitterDuration(d time.Duration, rng *rand.Rand) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.8 + 0.4*rng.Float64()))
}

package cdn

// Live peer membership for the self-healing edge mesh. The static
// -peers list the tier booted with rots the moment an edge dies or a
// new one joins; this layer keeps each node's view of the fleet
// current by heartbeating every peer and walking it through the
// classic three-state ladder:
//
//	alive   — last probe (or data-path observation) succeeded.
//	suspect — probes have failed for SuspectAfter; the peer stays on
//	          the ring (placement should not churn on one lost
//	          heartbeat) but stops being a peer-fill candidate.
//	dead    — probes have failed for DeadAfter; OnDead fires and the
//	          owner removes the peer from its cdn.Ring, resharding
//	          its keys onto the survivors.
//
// Recovery is symmetric: one successful probe makes a suspect or dead
// peer alive again, and a dead→alive transition fires OnAlive so the
// peer is re-admitted to the ring. Probes are not the only evidence —
// data-path callers feed ReportSuccess/ReportFailure, so an edge that
// just failed a peer-fill does not wait a heartbeat round to start
// suspecting, and a successful fetch revives a peer instantly.
//
// The sweep interval is jittered ±20% so a fleet booted together does
// not probe in lockstep, and every probe runs under its own timeout —
// one blackholed peer must not stall the sweep that would notice the
// others dying.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

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

// A ProbeFunc checks one peer's liveness; nil error means alive.
type ProbeFunc func(ctx context.Context) error

// MemberConfig shapes the membership sweep.
type MemberConfig struct {
	// Heartbeat paces the probe sweep. <= 0 means 500ms.
	Heartbeat time.Duration
	// ProbeTimeout bounds one peer probe. <= 0 means Heartbeat.
	ProbeTimeout time.Duration
	// SuspectAfter is how long a peer may go unheard before it is
	// suspected. <= 0 means 3x Heartbeat.
	SuspectAfter time.Duration
	// DeadAfter is how long before a suspect is declared dead and
	// removed from the ring. <= 0 means 2x SuspectAfter.
	DeadAfter time.Duration

	// Seed drives the sweep jitter; 0 derives a per-process default.
	Seed int64

	// OnAlive fires when a dead peer recovers (re-admit to the ring);
	// OnDead when a peer is declared dead (remove from the ring).
	// Both run outside the membership lock.
	OnAlive func(name string)
	OnDead  func(name string)

	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c MemberConfig) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return 500 * time.Millisecond
	}
	return c.Heartbeat
}

func (c MemberConfig) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return c.heartbeat()
	}
	return c.ProbeTimeout
}

func (c MemberConfig) suspectAfter() time.Duration {
	if c.SuspectAfter <= 0 {
		return 3 * c.heartbeat()
	}
	return c.SuspectAfter
}

func (c MemberConfig) deadAfter() time.Duration {
	if c.DeadAfter <= 0 {
		return 2 * c.suspectAfter()
	}
	return c.DeadAfter
}

// suspectFailures is how many consecutive data-path failures suspect
// an alive peer. Probes refresh lastOK every heartbeat, so a silence
// threshold alone would let a peer whose probe port answers but whose
// data path is broken stay a peer-fill candidate forever; a short
// failure streak is evidence enough to stop filling through it, while
// still letting one flaky fetch pass.
const suspectFailures = 3

type member struct {
	name   string
	probe  ProbeFunc
	state  MemberState
	lastOK time.Time
	fails  int // consecutive data-path failures since the last success
}

// A Membership tracks the liveness of a peer set. All methods are
// safe for concurrent use.
type Membership struct {
	cfg MemberConfig
	now func() time.Time

	mu    sync.Mutex
	peers map[string]*member
	rng   *rand.Rand

	loopCancel context.CancelFunc
	loopDone   chan struct{}

	probeFails  telemetry.Counter
	transitions telemetry.Counter
}

// NewMembership builds an empty membership table; populate it with
// AddPeer and run the sweep with Start (or drive Tick directly).
func NewMembership(cfg MemberConfig) *Membership {
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Membership{
		cfg:   cfg,
		now:   now,
		peers: map[string]*member{},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// AddPeer registers a peer, initially alive with a full grace period
// (a freshly added peer is not suspect until SuspectAfter passes
// without a successful probe). Idempotent; re-adding replaces the
// probe but keeps the state.
func (m *Membership) AddPeer(name string, probe ProbeFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[name]; ok {
		p.probe = probe
		return
	}
	m.peers[name] = &member{name: name, probe: probe, state: MemberAlive, lastOK: m.now()}
}

// RemovePeer forgets a peer without firing callbacks (the caller
// chose the removal).
func (m *Membership) RemovePeer(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.peers, name)
}

// State returns one peer's state; unknown peers report dead.
func (m *Membership) State(name string) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[name]; ok {
		return p.state
	}
	return MemberDead
}

// Alive reports whether name is currently alive (the peer-fill and
// routing gate: suspects are skipped without being ring-removed).
func (m *Membership) Alive(name string) bool { return m.State(name) == MemberAlive }

// States snapshots every peer's state.
func (m *Membership) States() map[string]MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]MemberState, len(m.peers))
	for n, p := range m.peers {
		out[n] = p.state
	}
	return out
}

// Counts returns how many peers are in each state.
func (m *Membership) Counts() (alive, suspect, dead int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		switch p.state {
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

// ReportSuccess records data-path proof the peer is alive — a
// completed fetch revives it without waiting for the next sweep.
func (m *Membership) ReportSuccess(name string) {
	m.mu.Lock()
	p, ok := m.peers[name]
	if !ok {
		m.mu.Unlock()
		return
	}
	p.lastOK = m.now()
	p.fails = 0
	fire := m.setStateLocked(p, MemberAlive)
	m.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// ReportFailure records a data-path failure against the peer. It
// escalates alive→suspect after suspectFailures consecutive failures
// (or sooner, when probes have also been silent for SuspectAfter) —
// probes refresh lastOK every heartbeat, so without the streak count a
// peer with a live probe port but a broken data path would never stop
// being a peer-fill candidate. It never declares death — removal from
// the ring is reserved for the sweep, which requires DeadAfter of
// sustained silence, so a burst of data-path errors cannot reshard
// the fleet.
func (m *Membership) ReportFailure(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[name]
	if !ok || p.state != MemberAlive {
		return
	}
	p.fails++
	if p.fails >= suspectFailures || m.now().Sub(p.lastOK) >= m.cfg.suspectAfter() {
		p.state = MemberSuspect
		p.fails = 0
		m.transitions.Add(1)
	}
}

// setStateLocked transitions p and returns the callback to fire after
// unlocking (nil when no callback applies). Callers hold m.mu.
func (m *Membership) setStateLocked(p *member, next MemberState) func() {
	prev := p.state
	if prev == next {
		return nil
	}
	p.state = next
	m.transitions.Add(1)
	name := p.name
	switch {
	case next == MemberDead && m.cfg.OnDead != nil:
		return func() { m.cfg.OnDead(name) }
	case prev == MemberDead && next == MemberAlive && m.cfg.OnAlive != nil:
		return func() { m.cfg.OnAlive(name) }
	}
	return nil
}

// Tick runs one sweep: probe every peer concurrently (each under its
// own timeout) and apply the outcomes. Exported so tests and
// experiment harnesses can drive membership deterministically.
func (m *Membership) Tick(ctx context.Context) {
	m.mu.Lock()
	peers := make([]*member, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })

	results := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		if p.probe == nil {
			continue
		}
		wg.Add(1)
		go func(i int, probe ProbeFunc) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.cfg.probeTimeout())
			defer cancel()
			results[i] = probe(pctx)
		}(i, p.probe)
	}
	wg.Wait()

	var fires []func()
	now := m.now()
	m.mu.Lock()
	for i, p := range peers {
		if _, still := m.peers[p.name]; !still {
			continue // removed while probing
		}
		if results[i] == nil {
			p.lastOK = now
			p.fails = 0
			if fire := m.setStateLocked(p, MemberAlive); fire != nil {
				fires = append(fires, fire)
			}
			continue
		}
		m.probeFails.Add(1)
		silent := now.Sub(p.lastOK)
		switch {
		case silent >= m.cfg.deadAfter():
			if fire := m.setStateLocked(p, MemberDead); fire != nil {
				fires = append(fires, fire)
			}
		case silent >= m.cfg.suspectAfter():
			if fire := m.setStateLocked(p, MemberSuspect); fire != nil {
				fires = append(fires, fire)
			}
		}
	}
	m.mu.Unlock()
	for _, fire := range fires {
		fire()
	}
}

// Start runs the jittered sweep loop until Close.
func (m *Membership) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	m.loopCancel = cancel
	m.loopDone = make(chan struct{})
	go func() {
		defer close(m.loopDone)
		for {
			m.mu.Lock()
			d := jitterDuration(m.cfg.heartbeat(), m.rng)
			m.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
			m.Tick(ctx)
		}
	}()
}

// Close stops the sweep loop.
func (m *Membership) Close() {
	if m.loopCancel != nil {
		m.loopCancel()
		<-m.loopDone
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
	m.mu.Lock()
	names := make([]string, 0, len(m.peers))
	for n := range m.peers {
		names = append(names, n)
	}
	m.mu.Unlock()
	for _, n := range names {
		reg.GaugeFunc(telemetry.WithLabel("sww_member_peer_state", "peer", n), func() float64 {
			return float64(m.State(n))
		})
	}
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

package cdn

// A warm standby is a second origin that mirrors the primary's
// invalidation log and takes over its sequence space when the primary
// dies. It rides the same wire protocol the edges already speak: the
// standby polls /sww-cdn/invalidations with the subscription headers
// (so the primary also pushes to it, making the mirror near-real-time
// between polls) and applies each feed through MirrorFeed. Liveness is
// inferred from that same traffic — any accepted feed, pushed or
// polled, proves the primary alive — so there is no separate heartbeat
// protocol to disagree with the data path.
//
// Failover ladder:
//
//  1. Feeds stop landing. After PromoteAfter of silence the standby
//     calls Promote: the epoch is bumped past the primary's and
//     persisted *before* the role flips, then the standby serves
//     /sww-cdn/ as the primary at the head it mirrored.
//  2. Edges find it through their origin EndpointSet: the dead
//     primary's breaker opens, Pick falls through to the standby, and
//     the higher epoch on its feeds tells every edge a failover
//     happened (adopted, counted, never reset — the sequence space
//     continued).
//  3. The promoted standby keeps polling the old primary's address,
//     now carrying the new epoch in the request header. The moment a
//     restarted zombie answers, it sees the newer epoch, demotes
//     itself to fenced, and refuses writes with 409 — so a partitioned
//     old primary cannot split the sequence space even if some edge
//     still has it sticky. Edges carry the epoch on their polls too;
//     the watch loop just makes fencing prompt instead of eventual.
//
// The promotion trigger is deliberately crude (a silence timeout, no
// quorum). The deployment model is one primary + one standby named in
// every edge's -origin-addr list; the failure that matters is "the
// primary process died", and the epoch fence bounds the damage of a
// false positive: the fenced loser stops writing, and the winner owns
// the log.

import (
	"context"
	"encoding/json"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/telemetry"
)

// StandbyConfig shapes the mirror/failover loop around a standby
// origin.
type StandbyConfig struct {
	// Name identifies the standby in the primary's subscriber table
	// (like an edge name). Defaults to "standby".
	Name string

	// AdvertiseAddr, when set, is sent with each mirror poll so the
	// primary dials back and pushes feeds between polls.
	AdvertiseAddr string

	// PrimaryDial reaches the primary's control surface. Required.
	PrimaryDial core.DialFunc

	// PollInterval is the mirror poll cadence (and the liveness probe
	// cadence after promotion). Default 250ms.
	PollInterval time.Duration

	// PromoteAfter is how long the primary must stay silent — no
	// accepted push, no successful poll — before the standby promotes
	// itself. Default 8x PollInterval.
	PromoteAfter time.Duration

	// Retry shapes the mirror client. Keep MaxAttempts low: a dead
	// primary should cost one failed dial per tick, not a retry storm.
	Retry core.RetryPolicy

	// Seed feeds the poll jitter; 0 seeds from the name.
	Seed int64

	// Clock substitutes time.Now in tests.
	Clock func() time.Time
}

// Standby runs the mirror-and-failover loop for a standby origin. Build
// the origin with OriginConfig{Standby: true}, wrap it in NewStandby,
// then Start.
type Standby struct {
	cfg    StandbyConfig
	origin *Origin
	rc     *core.ResilientClient

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	lastHeard time.Time

	mirrorPolls  telemetry.Counter // successful mirror polls
	mirrorErrors telemetry.Counter // failed polls (pre- and post-promotion)
	zombieSeen   telemetry.Counter // old-primary answers fenced since our promotion
}

// NewStandby wires the failover loop around origin (which must have
// been built as a standby). Call Start to begin mirroring.
func NewStandby(origin *Origin, cfg StandbyConfig) *Standby {
	if cfg.Name == "" {
		cfg.Name = "standby"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = 8 * cfg.PollInterval
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry.MaxAttempts = 1
	}
	s := &Standby{
		cfg:    cfg,
		origin: origin,
		rc:     core.NewResilientClient(cfg.PrimaryDial, device.Workstation, nil, cfg.Retry),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.lastHeard = cfg.Clock()
	// Pushes landing on our control surface are liveness too — the
	// primary proved itself by feeding us. Set before Start, read only
	// by MirrorFeed afterwards.
	origin.onMirror = s.touch
	return s
}

// Origin returns the origin this standby manages.
func (s *Standby) Origin() *Origin { return s.origin }

// touch records that the primary was heard from.
func (s *Standby) touch() {
	s.mu.Lock()
	s.lastHeard = s.cfg.Clock()
	s.mu.Unlock()
}

// sinceHeard reports how long the primary has been silent.
func (s *Standby) sinceHeard() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Clock().Sub(s.lastHeard)
}

// Start runs the mirror/failover loop until Close.
func (s *Standby) Start() {
	s.wg.Add(1)
	go s.loop()
}

// Close stops the loop and drops the mirror connection. It does not
// close the origin.
func (s *Standby) Close() {
	s.cancel()
	s.wg.Wait()
	s.rc.Close()
}

// loop is the whole ladder: mirror while standby, promote on silence,
// watch (and fence) the old primary after promotion.
func (s *Standby) loop() {
	defer s.wg.Done()
	seed := s.cfg.Seed
	if seed == 0 {
		for _, c := range s.cfg.Name {
			seed = seed*131 + int64(c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		// Jittered cadence so a fleet of standbys (tests run many)
		// doesn't poll in lockstep.
		d := s.cfg.PollInterval + time.Duration(rng.Int63n(int64(s.cfg.PollInterval)/4+1))
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(d):
		}
		s.pollPrimary()
		if s.origin.Role() == RoleStandby && s.sinceHeard() >= s.cfg.PromoteAfter {
			s.origin.Promote()
		}
	}
}

// pollPrimary runs one mirror poll (or, after promotion, one fence
// probe — same request, different consequence).
func (s *Standby) pollPrimary() {
	ctx, cancel := context.WithTimeout(s.ctx, s.cfg.PollInterval*4)
	defer cancel()
	fields := []hpack.HeaderField{
		{Name: edgeNameHeader, Value: s.cfg.Name},
		{Name: originEpochHeader, Value: strconv.FormatUint(s.origin.Epoch(), 10)},
	}
	if s.cfg.AdvertiseAddr != "" {
		fields = append(fields, hpack.HeaderField{Name: edgeAddrHeader, Value: s.cfg.AdvertiseAddr})
	}
	path := invalidationsPath + "?since=" + strconv.FormatUint(s.origin.Seq(), 10)
	raw, err := s.rc.FetchRawContext(ctx, path, fields...)
	if err != nil {
		s.mirrorErrors.Add(1)
		return
	}
	if raw.Status == statusFenced {
		// Only a fenced origin answers 409: the old primary saw our
		// (or someone's) newer epoch and stood down.
		s.zombieSeen.Add(1)
		return
	}
	if raw.Status != 200 {
		s.mirrorErrors.Add(1)
		return
	}
	var feed InvalidationFeed
	if err := json.Unmarshal(raw.Body, &feed); err != nil {
		s.mirrorErrors.Add(1)
		return
	}
	// MirrorFeed touches lastHeard via onMirror while we are standby
	// and no-ops after promotion — the probe result alone matters then.
	s.origin.MirrorFeed(feed)
	s.mirrorPolls.Add(1)
}

// StandbyStats is a snapshot of the failover loop's counters.
type StandbyStats struct {
	MirrorPolls  uint64
	MirrorErrors uint64
	ZombieSeen   uint64
	SilenceFor   time.Duration
}

// Stats snapshots the standby loop's counters.
func (s *Standby) Stats() StandbyStats {
	return StandbyStats{
		MirrorPolls:  s.mirrorPolls.Load(),
		MirrorErrors: s.mirrorErrors.Load(),
		ZombieSeen:   s.zombieSeen.Load(),
		SilenceFor:   s.sinceHeard(),
	}
}

// Register exports the standby loop's counters onto reg (the origin's
// own role/epoch gauges come from Origin.Register).
func (s *Standby) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Adopt("sww_standby_mirror_polls_total", &s.mirrorPolls)
	reg.Adopt("sww_standby_mirror_errors_total", &s.mirrorErrors)
	reg.Adopt("sww_standby_zombie_fenced_total", &s.zombieSeen)
	reg.GaugeFunc("sww_standby_silence_seconds", func() float64 { return s.sinceHeard().Seconds() })
}

package cdn

// The live origin: a core.Server plus the origin half of the edge
// invalidation protocol. Unpublishes (explicit page removals and
// LRU evictions of generated content) append to a bounded, sequenced
// invalidation log. Delivery is push with pull repair:
//
//   - Push: every subscribed edge gets new log entries fanned out the
//     moment they are appended, each push carrying the subscriber's
//     last acked sequence (since) and the new head (seq). The edge
//     acks with the sequence it now stands at; an ack behind the head
//     means "still missing deliveries, re-push from here", so lost
//     pushes heal on the next successful one. One push loop runs per
//     subscriber — a dead edge costs one error per invalidation
//     burst, never a stuck fan-out for the others.
//   - Pull (anti-entropy): edges keep polling the control endpoint on
//     a jittered interval. A partitioned edge misses nothing, because
//     on reconnect its next poll resumes from the last sequence it
//     applied — reconciliation is the protocol's steady state, not a
//     special case. Polls double as subscription upkeep: each one
//     carries the edge's name and (when configured) its push address,
//     so subscriptions survive an origin restart with zero extra
//     control traffic, and the ?since= value refreshes the origin's
//     view of how far along the edge is.
//
// If the log has been truncated past an edge's position, the feed
// (pushed or pulled) says so (reset=true) and the edge flushes its
// whole cache rather than risk serving unpublished content forever.
//
// High availability (OriginConfig) layers three mechanisms on top:
//
//   - Durable log: with LogDir set, every appended entry also lands in
//     a fsynced write-ahead file with crash-consistent snapshot
//     compaction (originlog.go). A restarted origin resumes at its old
//     sequence number, so edges reconcile incrementally instead of
//     hitting the since > seq reset path and flushing the whole fleet.
//   - Roles: an origin is primary (owns the sequence space), standby
//     (mirrors a primary's feed via MirrorFeed, ready to promote), or
//     fenced (a deposed primary: control requests are refused with
//     409, pushes stop, local invalidations are dropped).
//   - Epoch fencing: every feed, push and ack carries the origin
//     epoch, and edges ride their highest seen epoch on a request
//     header. A promoted standby bumps the epoch (durably, when
//     EpochDir is set); any response the old primary produces now
//     carries a lower epoch and is refused, and the first request or
//     ack showing the primary a newer epoch demotes it to fenced — a
//     zombie cannot split the sequence space.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/telemetry"
)

// ControlPrefix is the path prefix the origin intercepts for CDN
// control traffic; everything else resolves as normal site traffic.
const ControlPrefix = "/sww-cdn/"

// Control endpoints under ControlPrefix. health and push are also
// served by edges (membership heartbeats and invalidation fan-out
// both land on the edge's own listener).
const (
	invalidationsPath = ControlPrefix + "invalidations"
	healthPath        = ControlPrefix + "health"
	pushPath          = ControlPrefix + "push"
)

// Subscription headers an edge rides on its invalidation polls: the
// name identifies the subscriber, the addr (optional) tells the
// origin where to dial push deliveries.
const (
	edgeNameHeader = "x-sww-edge-name"
	edgeAddrHeader = "x-sww-edge-addr"
)

// originEpochHeader rides on control requests (edge polls, standby
// mirror polls and the post-promotion zombie watch) and carries the
// sender's highest seen origin epoch — the gossip path by which a
// deposed primary learns it has been fenced.
const originEpochHeader = "x-sww-origin-epoch"

// statusFenced is the control-surface refusal of a fenced origin: the
// requester should fail over to the incarnation holding the newer
// epoch. 409 and not 503 — the condition is permanent for this
// incarnation, so no Retry-After advice applies.
const statusFenced = 409

// DefaultInvalidationLog bounds the retained invalidation entries.
// 1024 entries is hours of churn at realistic eviction rates; an edge
// further behind than that flushes and refills, which is always safe.
const DefaultInvalidationLog = 1024

// pushTimeout bounds one push delivery to one subscriber.
const pushTimeout = 2 * time.Second

// An InvalidationFeed is one poll's (or push's) answer, in wire form.
type InvalidationFeed struct {
	// Seq is the newest sequence number; the edge stores it and sends
	// it back as ?since= on its next poll.
	Seq uint64 `json:"seq"`
	// Since is the position this feed continues from — the edge
	// refuses a pushed feed whose Since it has not reached (a gap),
	// instead of silently skipping invalidations.
	Since uint64 `json:"since,omitempty"`
	// Reset reports that the log no longer reaches back to the edge's
	// position: the paths list is not exhaustive and the edge must
	// flush its entire cache.
	Reset bool `json:"reset"`
	// Paths lists every path invalidated after the edge's position.
	Paths []string `json:"paths,omitempty"`
	// Epoch is the origin incarnation that produced this feed. An edge
	// that has seen a newer epoch refuses the feed (the sender is a
	// fenced zombie); 0 means a pre-epoch origin and is always
	// accepted.
	Epoch uint64 `json:"epoch,omitempty"`
}

// pushAck is an edge's answer to one push: the sequence it now stands
// at, and the newest origin epoch it has seen — a pushing zombie
// learns of its own fencing from the ack.
type pushAck struct {
	Ack   uint64 `json:"ack"`
	Epoch uint64 `json:"epoch,omitempty"`
}

type invalEntry struct {
	seq   uint64
	paths []string
}

// subscriber is one edge registered for push fan-out.
type subscriber struct {
	name string
	addr string
	rc   *core.ResilientClient

	mu      sync.Mutex
	acked   uint64 // newest sequence the edge confirmed applying
	pushing bool   // one push loop at a time
}

// OriginRole is an origin's place in the HA pair. The gauge values
// (sww_origin_role) match the iota order.
type OriginRole int32

const (
	// RolePrimary owns the sequence space: local unpublishes append,
	// pushes fan out.
	RolePrimary OriginRole = iota
	// RoleStandby mirrors a primary's feed into its own log and serves
	// reads; local unpublishes are dropped (the primary's sequence
	// space is the only one).
	RoleStandby
	// RoleFenced is a deposed primary: a newer epoch is live, control
	// requests are refused with 409, and nothing appends or pushes.
	RoleFenced
)

func (r OriginRole) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	case RoleFenced:
		return "fenced"
	}
	return "unknown"
}

// OriginConfig shapes one origin beyond the log depth.
type OriginConfig struct {
	// MaxLog bounds retained invalidation entries; <= 0 means
	// DefaultInvalidationLog.
	MaxLog int

	// LogDir, when set, makes the invalidation log durable: appends go
	// to a fsynced WAL with snapshot compaction, and a restart resumes
	// at the old sequence number instead of resetting every edge.
	LogDir string

	// EpochDir, when set, persists the fencing epoch across restarts.
	// Without it the epoch starts at 1 every boot — fine for a single
	// origin, wrong for an HA pair (a restarted promoted standby would
	// forget its promotion).
	EpochDir string

	// Standby boots the origin in RoleStandby: mirroring a primary
	// (see Standby in standby.go), not owning the sequence space.
	Standby bool
}

// An Origin is a site server with the CDN control surface attached.
type Origin struct {
	srv *core.Server
	cfg OriginConfig

	mu     sync.Mutex
	seq    uint64 // last assigned sequence number
	floor  uint64 // entries <= floor have been truncated away
	log    []invalEntry
	maxLog int
	dlog   *originLog // durable WAL + snapshot; nil without LogDir

	epoch atomic.Uint64 // this incarnation's fencing epoch
	role  atomic.Int32  // OriginRole
	// epochMu serializes the writers of epoch (Promote, adoptEpoch) and
	// the standby → primary flip; readers use the atomics.
	epochMu sync.Mutex

	// onMirror, when set (by Standby), observes every accepted mirror
	// feed — the standby's liveness evidence for its promotion timer.
	onMirror func()

	subMu sync.Mutex
	subs  map[string]*subscriber

	invalidations telemetry.Counter // paths invalidated
	feedRequests  telemetry.Counter // invalidation polls answered
	feedResets    telemetry.Counter // polls answered with reset=true
	pushes        telemetry.Counter // push deliveries attempted
	pushErrors    telemetry.Counter // push deliveries failed
	pushResets    telemetry.Counter // pushes that carried reset=true
	fenceRefusals telemetry.Counter // control requests refused while fenced
	fenceEvents   telemetry.Counter // demotions: a newer epoch observed while primary
	mirrored      telemetry.Counter // feeds mirrored into the log (standby role)
	promotions    telemetry.Counter // standby -> primary transitions
	logErrors     telemetry.Counter // durable log / epoch persistence failures
	logTorn       telemetry.Counter // torn WAL tail lines dropped at recovery
}

// NewOrigin attaches the CDN control surface to srv: unpublish events
// feed the invalidation log, and /sww-cdn/* is served on the site's
// listener. maxLog <= 0 means DefaultInvalidationLog. The log is
// in-memory; use NewOriginWithConfig for durability, standby role and
// persisted epochs.
func NewOrigin(srv *core.Server, maxLog int) *Origin {
	o, _ := NewOriginWithConfig(srv, OriginConfig{MaxLog: maxLog})
	return o
}

// NewOriginWithConfig is NewOrigin with the HA knobs. The error is
// always a persistence problem (unreadable log dir, corrupt epoch
// file); with empty LogDir and EpochDir it cannot fail.
func NewOriginWithConfig(srv *core.Server, cfg OriginConfig) (*Origin, error) {
	maxLog := cfg.MaxLog
	if maxLog <= 0 {
		maxLog = DefaultInvalidationLog
	}
	o := &Origin{srv: srv, cfg: cfg, maxLog: maxLog, subs: map[string]*subscriber{}}
	o.epoch.Store(1)
	if cfg.Standby {
		o.role.Store(int32(RoleStandby))
	}
	if cfg.EpochDir != "" {
		ep, err := loadEpoch(cfg.EpochDir)
		if err != nil {
			return nil, err
		}
		if ep > 0 {
			o.epoch.Store(ep)
		} else if err := saveEpoch(cfg.EpochDir, 1); err != nil {
			return nil, err
		}
	}
	if cfg.LogDir != "" {
		dlog, st, err := openOriginLog(cfg.LogDir)
		if err != nil {
			return nil, err
		}
		o.dlog = dlog
		o.seq, o.floor = st.seq, st.floor
		o.logTorn.Add(uint64(st.torn))
		for _, e := range st.entries {
			o.log = append(o.log, invalEntry{seq: e.Seq, paths: e.Paths})
		}
		if over := len(o.log) - maxLog; over > 0 {
			o.floor = o.log[over-1].seq
			o.log = append(o.log[:0], o.log[over:]...)
		}
	}
	srv.SetOnUnpublish(o.Invalidate)
	srv.SetControl(ControlPrefix, o.control)
	return o, nil
}

// Role returns the origin's current role.
func (o *Origin) Role() OriginRole { return OriginRole(o.role.Load()) }

// Epoch returns the origin's fencing epoch.
func (o *Origin) Epoch() uint64 { return o.epoch.Load() }

// Server returns the wrapped site server.
func (o *Origin) Server() *core.Server { return o.srv }

// Invalidate appends one invalidation entry covering paths and fans
// it out to every subscribed edge. Called automatically for unpublish
// events; exported for tests and manual cache busting. Only a primary
// appends: a standby's sequence space belongs to the primary it
// mirrors, and a fenced origin's belongs to whoever deposed it — in
// both roles local unpublishes are dropped (the authoritative origin
// issues its own).
func (o *Origin) Invalidate(paths []string) {
	if len(paths) == 0 || o.Role() != RolePrimary {
		return
	}
	o.mu.Lock()
	o.seq++
	o.log = append(o.log, invalEntry{seq: o.seq, paths: append([]string(nil), paths...)})
	o.invalidations.Add(uint64(len(paths)))
	if over := len(o.log) - o.maxLog; over > 0 {
		o.floor = o.log[over-1].seq
		o.log = append(o.log[:0], o.log[over:]...)
	}
	o.persistLocked(walEntry{Seq: o.seq, Paths: o.log[len(o.log)-1].paths})
	o.mu.Unlock()
	o.pushAll()
}

// persistLocked appends one entry to the durable log and compacts the
// WAL once it outgrows the retained window. Persistence failures are
// counted, not fatal: the in-memory protocol keeps working, the next
// restart just falls back to the reset path. Callers hold o.mu.
func (o *Origin) persistLocked(e walEntry) {
	if o.dlog == nil {
		return
	}
	if err := o.dlog.append(e); err != nil {
		o.logErrors.Add(1)
		return
	}
	if o.dlog.pending > o.maxLog {
		o.compactLocked()
	}
}

// compactLocked snapshots the retained log and truncates the WAL.
func (o *Origin) compactLocked() {
	snap := originSnapshot{Seq: o.seq, Floor: o.floor}
	for _, e := range o.log {
		snap.Entries = append(snap.Entries, walEntry{Seq: e.seq, Paths: e.paths})
	}
	if err := o.dlog.compact(snap); err != nil {
		o.logErrors.Add(1)
	}
}

// Seq returns the newest invalidation sequence number.
func (o *Origin) Seq() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seq
}

// Feed answers one poll: everything invalidated after since, or a
// reset when the log no longer reaches back that far.
func (o *Origin) Feed(since uint64) InvalidationFeed {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.feedRequests.Add(1)
	feed := o.feedLocked(since)
	if feed.Reset {
		o.feedResets.Add(1)
	}
	return feed
}

// feedLocked builds the feed for one position; callers hold o.mu.
func (o *Origin) feedLocked(since uint64) InvalidationFeed {
	feed := InvalidationFeed{Seq: o.seq, Since: since, Epoch: o.epoch.Load()}
	if since > o.seq {
		// The edge stands ahead of our head: it anchored against
		// another origin incarnation — a restart without a durable
		// log re-starts seq at 0, and a freshly promoted standby may
		// lag the primary's last moments. Anything may have been
		// unpublished across the gap and the old sequence space
		// means nothing now, so the only safe answer is a reset — the
		// edge flushes and re-anchors at the new head instead of
		// trusting a cursor no log backs anymore.
		feed.Reset = true
		return feed
	}
	if since < o.floor {
		// The edge's position fell off the log: anything might have
		// been invalidated in the gap, so the only safe answer is
		// "flush everything".
		feed.Reset = true
		return feed
	}
	for _, e := range o.log {
		if e.seq > since {
			feed.Paths = append(feed.Paths, e.paths...)
		}
	}
	return feed
}

// observeEpoch folds one epoch seen on the wire (a request header, a
// push ack, a mirrored feed) into the origin's state. A newer epoch
// means a promoted standby is live somewhere: a primary demotes
// itself to fenced (keeping its own lower epoch, so everything it
// already sent stays refusable), while a standby simply adopts the
// newer epoch as its promotion baseline. Returns false when the
// origin just fenced itself.
func (o *Origin) observeEpoch(epoch uint64) bool {
	if epoch == 0 || epoch <= o.epoch.Load() {
		return true
	}
	switch o.Role() {
	case RolePrimary:
		if o.role.CompareAndSwap(int32(RolePrimary), int32(RoleFenced)) {
			o.fenceEvents.Add(1)
		}
		return false
	case RoleStandby:
		o.adoptEpoch(epoch)
	}
	return true
}

// adoptEpoch raises the origin's epoch to at least epoch, persisting
// when configured.
func (o *Origin) adoptEpoch(epoch uint64) {
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	if epoch > o.epoch.Load() {
		o.raiseEpochLocked(epoch)
	}
}

// raiseEpochLocked makes epoch durable (when configured) and then
// visible, in that order: an epoch that was announced but lost in a
// crash could come back *below* the fleet and fence itself. Called with
// o.epochMu held, which orders the writes of concurrent raisers.
func (o *Origin) raiseEpochLocked(epoch uint64) {
	if o.cfg.EpochDir != "" {
		if err := saveEpoch(o.cfg.EpochDir, epoch); err != nil {
			o.logErrors.Add(1)
		}
	}
	o.epoch.Store(epoch)
}

// Promote turns a standby into the primary: the epoch is bumped past
// everything the old primary ever used, durably first, and only then
// does the role flip — whoever sees a primary sees its new epoch — and
// the push loops drain anything subscribers are missing. Idempotent;
// returns the epoch in force.
func (o *Origin) Promote() uint64 {
	o.epochMu.Lock()
	if o.Role() != RoleStandby {
		o.epochMu.Unlock()
		return o.epoch.Load()
	}
	next := o.epoch.Load() + 1
	o.raiseEpochLocked(next)
	o.role.Store(int32(RolePrimary))
	o.epochMu.Unlock()
	o.promotions.Add(1)
	o.pushAll()
	return next
}

// MirrorFeed applies one of the primary's feeds (pushed to the
// standby's control surface, or pulled by the standby's mirror poll)
// to a standby's log, and returns the sequence this origin now stands
// at — the mirror's ack. The entry granularity is the feed: one
// batched entry at the primary's head covering every path the feed
// carried. That loses the primary's entry boundaries but none of its
// guarantees — an edge polling the standby from a position inside a
// batch gets a superset of its missed paths, which over-invalidates
// and never under-invalidates.
func (o *Origin) MirrorFeed(feed InvalidationFeed) uint64 {
	if o.Role() != RoleStandby {
		// Promoted (or never standby): we own the sequence space now;
		// ack our head so a still-pushing old primary stops.
		return o.Seq()
	}
	if feed.Epoch != 0 && feed.Epoch < o.epoch.Load() {
		// A deposed incarnation is still feeding us; refuse silently —
		// our ack carries our epoch, which tells it to fence.
		return o.Seq()
	}
	o.observeEpoch(feed.Epoch)
	if o.onMirror != nil {
		o.onMirror()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case feed.Reset || feed.Since > o.seq:
		// The primary cannot bridge from our position (its log was
		// truncated past us, or we lag its restart). Adopt its head as
		// both floor and seq: we can no longer answer anyone below the
		// head without a reset of our own, which is exactly right —
		// the gap's invalidations are unknown to us too.
		o.seq, o.floor = feed.Seq, feed.Seq
		o.log = o.log[:0]
		if o.dlog != nil {
			o.compactLocked()
		}
		o.mirrored.Add(1)
	case feed.Seq <= o.seq:
		// Duplicate or overlap already covered (push raced our poll).
	default:
		paths := append([]string(nil), feed.Paths...)
		o.log = append(o.log, invalEntry{seq: feed.Seq, paths: paths})
		o.seq = feed.Seq
		if over := len(o.log) - o.maxLog; over > 0 {
			o.floor = o.log[over-1].seq
			o.log = append(o.log[:0], o.log[over:]...)
		}
		o.persistLocked(walEntry{Seq: feed.Seq, Paths: paths})
		o.mirrored.Add(1)
	}
	return o.seq
}

// Subscribe registers (or re-dials) an edge for push fan-out and
// immediately brings it current. since is the newest sequence the edge
// has already applied — a new subscriber is born at that watermark, so
// the racing push loop cannot deliver the whole retained log (or a
// spurious reset) to an edge that is in fact current. Called
// automatically when a poll carries the subscription headers; exported
// for in-process wiring.
func (o *Origin) Subscribe(name, addr string, since uint64, dial core.DialFunc) {
	o.subMu.Lock()
	s, ok := o.subs[name]
	if ok && s.addr == addr && addr != "" {
		o.subMu.Unlock()
		o.schedulePush(s)
		return
	}
	if ok && s.rc != nil {
		s.rc.Close()
	}
	s = &subscriber{
		name:  name,
		addr:  addr,
		acked: since,
		rc: core.NewResilientClient(dial, device.Workstation, nil,
			core.RetryPolicy{MaxAttempts: 1}, nil),
	}
	o.subs[name] = s
	o.subMu.Unlock()
	o.schedulePush(s)
}

// Unsubscribe drops an edge from push fan-out (it can still poll).
func (o *Origin) Unsubscribe(name string) {
	o.subMu.Lock()
	s, ok := o.subs[name]
	delete(o.subs, name)
	o.subMu.Unlock()
	if ok && s.rc != nil {
		s.rc.Close()
	}
}

// Subscribers returns the names of the currently subscribed edges.
func (o *Origin) Subscribers() []string {
	o.subMu.Lock()
	defer o.subMu.Unlock()
	names := make([]string, 0, len(o.subs))
	for n := range o.subs {
		names = append(names, n)
	}
	return names
}

// SubscriberAck returns the last sequence an edge acked (0, false if
// the edge is not subscribed).
func (o *Origin) SubscriberAck(name string) (uint64, bool) {
	o.subMu.Lock()
	s, ok := o.subs[name]
	o.subMu.Unlock()
	if !ok {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked, true
}

// Close drops every subscriber transport and the durable log handle.
// In-flight push loops fail fast and exit.
func (o *Origin) Close() {
	o.subMu.Lock()
	subs := make([]*subscriber, 0, len(o.subs))
	for _, s := range o.subs {
		subs = append(subs, s)
	}
	o.subs = map[string]*subscriber{}
	o.subMu.Unlock()
	for _, s := range subs {
		if s.rc != nil {
			s.rc.Close()
		}
	}
	o.mu.Lock()
	if o.dlog != nil {
		o.dlog.close()
		o.dlog = nil
	}
	o.mu.Unlock()
}

// pushAll schedules a push loop for every subscriber that is behind.
func (o *Origin) pushAll() {
	o.subMu.Lock()
	subs := make([]*subscriber, 0, len(o.subs))
	for _, s := range o.subs {
		subs = append(subs, s)
	}
	o.subMu.Unlock()
	for _, s := range subs {
		o.schedulePush(s)
	}
}

// schedulePush starts s's push loop unless one is already draining.
// Only a primary pushes: a standby's subscribers are kept registered
// (so promotion inherits the fan-out list warm) but not fed — the
// primary is already pushing them the same entries — and a fenced
// origin must go quiet.
func (o *Origin) schedulePush(s *subscriber) {
	if o.Role() != RolePrimary {
		return
	}
	s.mu.Lock()
	if s.pushing {
		s.mu.Unlock()
		return
	}
	s.pushing = true
	s.mu.Unlock()
	go o.pushLoop(s)
}

// pushLoop drains one subscriber: push from its acked position, adopt
// the ack, repeat until the edge stands at the head or delivery
// fails. Failures are abandoned, not retried in place — the edge's
// anti-entropy poll repairs the gap, and the next Invalidate (or the
// next poll observation) schedules a fresh loop.
func (o *Origin) pushLoop(s *subscriber) {
	defer func() {
		s.mu.Lock()
		s.pushing = false
		s.mu.Unlock()
	}()
	for {
		s.mu.Lock()
		acked := s.acked
		s.mu.Unlock()
		o.mu.Lock()
		head := o.seq
		feed := o.feedLocked(acked)
		o.mu.Unlock()
		if acked >= head {
			return
		}
		ack, err := o.pushOnce(s, feed)
		if err != nil {
			o.pushErrors.Add(1)
			return
		}
		s.mu.Lock()
		if ack > s.acked {
			s.acked = ack
		}
		progressed := s.acked > acked
		s.mu.Unlock()
		if !progressed {
			// The edge refused (gap from its point of view) and its
			// ack did not move ours back either — stop rather than
			// spin; anti-entropy owns this repair.
			return
		}
	}
}

// pushOnce delivers one feed to one subscriber and returns its ack.
func (o *Origin) pushOnce(s *subscriber, feed InvalidationFeed) (uint64, error) {
	o.pushes.Add(1)
	if feed.Reset {
		o.pushResets.Add(1)
	}
	q := url.Values{}
	q.Set("since", strconv.FormatUint(feed.Since, 10))
	q.Set("seq", strconv.FormatUint(feed.Seq, 10))
	q.Set("epoch", strconv.FormatUint(feed.Epoch, 10))
	if feed.Reset {
		q.Set("reset", "1")
	}
	if len(feed.Paths) > 0 {
		// Escape each path before joining: the comma separator must
		// survive paths that contain commas themselves.
		escaped := make([]string, len(feed.Paths))
		for i, p := range feed.Paths {
			escaped[i] = url.QueryEscape(p)
		}
		q.Set("paths", strings.Join(escaped, ","))
	}
	ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
	defer cancel()
	raw, err := s.rc.FetchRawContext(ctx, pushPath+"?"+q.Encode())
	if err != nil {
		return 0, err
	}
	if raw.Status != 200 {
		return 0, fmt.Errorf("push status %d", raw.Status)
	}
	var ack pushAck
	if err := json.Unmarshal(raw.Body, &ack); err != nil {
		return 0, err
	}
	if !o.observeEpoch(ack.Epoch) {
		// The edge has seen a newer epoch than ours: we are the
		// zombie. observeEpoch already fenced us; stop this loop.
		return 0, fmt.Errorf("fenced by subscriber ack (epoch %d > %d)", ack.Epoch, o.epoch.Load())
	}
	return ack.Ack, nil
}

// observePoll folds one poll's subscription metadata into the
// registry: refresh (or establish) the subscription when the edge
// advertises a push address, and adopt its position. since is the
// edge's actual applied state, so it is adopted in both directions:
// forward when the edge applied entries we never saw acked, and
// backward when the edge re-anchored below us (a cold restart, or a
// feed reset after an origin restart) — without the backward move,
// pushes would stay suppressed until seq outgrew the stale watermark
// and every invalidation until then would rely on the poller alone. A
// stale since from a poll racing a push costs at most one redundant
// push, which the edge dedups and re-acks forward.
func (o *Origin) observePoll(name, addr string, since uint64) {
	if name == "" {
		return
	}
	if addr != "" {
		o.subMu.Lock()
		s, ok := o.subs[name]
		sameAddr := ok && s.addr == addr
		o.subMu.Unlock()
		if !sameAddr {
			addr := addr
			o.Subscribe(name, addr, since, func() (net.Conn, error) {
				return net.Dial("tcp", addr)
			})
		}
	}
	o.subMu.Lock()
	s, ok := o.subs[name]
	o.subMu.Unlock()
	if !ok {
		return
	}
	s.mu.Lock()
	s.acked = since
	s.mu.Unlock()
}

// control serves the CDN endpoints on the site listener.
func (o *Origin) control(w *http2.ResponseWriter, r *http2.Request) {
	// Every control request may carry the sender's highest seen
	// epoch; a newer one is how a zombie primary learns it was
	// deposed while it was dead — before it answers anything.
	if v := r.HeaderValue(originEpochHeader); v != "" {
		if ep, err := strconv.ParseUint(v, 10, 64); err == nil {
			o.observeEpoch(ep)
		}
	}
	path, query, _ := strings.Cut(r.Path, "?")
	switch path {
	case healthPath:
		writeControl(w, 200, "text/plain; charset=utf-8", []byte("ok\n"))
	case invalidationsPath:
		if o.Role() == RoleFenced {
			o.fenceRefusals.Add(1)
			writeControl(w, statusFenced, "text/plain; charset=utf-8",
				[]byte("fenced: a newer origin epoch is active\n"))
			return
		}
		var since uint64
		for _, kv := range strings.Split(query, "&") {
			if v, ok := strings.CutPrefix(kv, "since="); ok {
				since, _ = strconv.ParseUint(v, 10, 64)
			}
		}
		o.observePoll(r.HeaderValue(edgeNameHeader), r.HeaderValue(edgeAddrHeader), since)
		body, err := json.Marshal(o.Feed(since))
		if err != nil {
			writeControl(w, 500, "text/plain; charset=utf-8", []byte(fmt.Sprintf("encode: %v\n", err)))
			return
		}
		writeControl(w, 200, "application/json", body)
	case pushPath:
		// The origin's own push surface exists for the standby role:
		// the primary pushes invalidations here exactly as it does to
		// subscribed edges, and the mirror applies them to its log.
		feed, err := parseFeedQuery(query)
		if err != nil {
			writeControl(w, 400, "text/plain; charset=utf-8", []byte("bad push query\n"))
			return
		}
		ack := o.MirrorFeed(feed)
		body, _ := json.Marshal(pushAck{Ack: ack, Epoch: o.epoch.Load()})
		writeControl(w, 200, "application/json", body)
	default:
		writeControl(w, 404, "text/plain; charset=utf-8", []byte("unknown control endpoint\n"))
	}
}

// parseFeedQuery decodes the push wire form (query parameters, see
// pushOnce) back into a feed. Shared by the edge's push surface and
// the origin's standby mirror surface.
func parseFeedQuery(query string) (InvalidationFeed, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return InvalidationFeed{}, err
	}
	feed := InvalidationFeed{Reset: q.Get("reset") == "1"}
	feed.Seq, _ = strconv.ParseUint(q.Get("seq"), 10, 64)
	feed.Since, _ = strconv.ParseUint(q.Get("since"), 10, 64)
	feed.Epoch, _ = strconv.ParseUint(q.Get("epoch"), 10, 64)
	if raw := q.Get("paths"); raw != "" {
		for _, p := range strings.Split(raw, ",") {
			if u, err := url.QueryUnescape(p); err == nil && u != "" {
				feed.Paths = append(feed.Paths, u)
			}
		}
	}
	return feed, nil
}

// writeControl answers a control request.
func writeControl(w *http2.ResponseWriter, status int, contentType string, body []byte) {
	// A failed write means the asking node is gone; it will ask again.
	_ = w.Respond(status, body,
		hpack.HeaderField{Name: "content-type", Value: contentType},
		hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(len(body))},
	)
}

// OriginStats is a snapshot of the origin's HA counters — the same
// atomics Register exports, for tests and experiment harnesses.
type OriginStats struct {
	Invalidations uint64
	FeedRequests  uint64
	FeedResets    uint64
	Pushes        uint64
	PushErrors    uint64
	FenceRefusals uint64
	FenceEvents   uint64
	Mirrored      uint64
	Promotions    uint64
	LogErrors     uint64
	LogTorn       uint64
}

// Stats snapshots the origin counters.
func (o *Origin) Stats() OriginStats {
	return OriginStats{
		Invalidations: o.invalidations.Load(),
		FeedRequests:  o.feedRequests.Load(),
		FeedResets:    o.feedResets.Load(),
		Pushes:        o.pushes.Load(),
		PushErrors:    o.pushErrors.Load(),
		FenceRefusals: o.fenceRefusals.Load(),
		FenceEvents:   o.fenceEvents.Load(),
		Mirrored:      o.mirrored.Load(),
		Promotions:    o.promotions.Load(),
		LogErrors:     o.logErrors.Load(),
		LogTorn:       o.logTorn.Load(),
	}
}

// Register exports the origin-side protocol counters and the current
// sequence number onto reg.
func (o *Origin) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Adopt("sww_cdn_origin_invalidations_total", &o.invalidations)
	reg.Adopt("sww_cdn_origin_feed_requests_total", &o.feedRequests)
	reg.Adopt("sww_cdn_origin_feed_resets_total", &o.feedResets)
	reg.Adopt("sww_cdn_origin_pushes_total", &o.pushes)
	reg.Adopt("sww_cdn_origin_push_errors_total", &o.pushErrors)
	reg.Adopt("sww_cdn_origin_push_resets_total", &o.pushResets)
	reg.Adopt("sww_origin_fence_refusals_total", &o.fenceRefusals)
	reg.Adopt("sww_origin_fence_events_total", &o.fenceEvents)
	reg.Adopt("sww_origin_mirrored_total", &o.mirrored)
	reg.Adopt("sww_origin_promotions_total", &o.promotions)
	reg.Adopt("sww_origin_log_errors_total", &o.logErrors)
	reg.Adopt("sww_origin_log_torn_total", &o.logTorn)
	reg.GaugeFunc("sww_origin_role", func() float64 { return float64(o.role.Load()) })
	reg.GaugeFunc("sww_origin_epoch", func() float64 { return float64(o.epoch.Load()) })
	reg.GaugeFunc("sww_cdn_origin_seq", func() float64 { return float64(o.Seq()) })
	reg.GaugeFunc("sww_cdn_origin_subscribers", func() float64 {
		o.subMu.Lock()
		defer o.subMu.Unlock()
		return float64(len(o.subs))
	})
}

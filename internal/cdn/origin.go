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
//     pushes heal on the next successful one. One pusher goroutine
//     runs per subscriber for the life of the subscription — a dead
//     edge costs one error per invalidation burst, never a stuck
//     fan-out for the others.
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
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

// pushTimeout bounds one push delivery to one subscriber, and the dial
// of a subscriber that advertised a TCP address.
const pushTimeout = 2 * time.Second

// An InvalidationFeed is one poll's (or push's) answer, in wire form.
type InvalidationFeed struct {
	// Seq is the newest sequence number; the edge stores it and sends
	// it back as ?since= on its next poll.
	Seq uint64 `json:"seq"`
	// Since is the position this feed continues from. A receiver
	// applies the feed only when it stands exactly there; judgeFeed
	// names what it makes of any other position.
	Since uint64 `json:"since,omitempty"`
	// Reset reports that the log no longer reaches back to the edge's
	// position: the paths list is not exhaustive (feedReset).
	Reset bool `json:"reset"`
	// Paths lists every path invalidated after the edge's position.
	Paths []string `json:"paths,omitempty"`
	// Epoch is the origin incarnation that produced this feed, 0 for a
	// pre-epoch origin; a receiver that has seen a newer one refuses
	// it (feedFenced).
	Epoch uint64 `json:"epoch,omitempty"`
}

// A feedVerdict is what a receiver at position last, having seen
// origin epoch mine, makes of one feed. judgeFeed is the one rule; the
// edge's push and poll and the standby's mirror each switch on it.
type feedVerdict uint8

const (
	feedApply     feedVerdict = iota // Since == last < Seq: the news, from exactly here
	feedDuplicate                    // Seq <= last: nothing new
	feedOverlap                      // Since < last < Seq: repeats (Since, last], which must not apply again
	feedGap                          // Since > last: applying would skip invalidations
	feedReset                        // the sender's log no longer reaches last: its paths are not all
	feedFenced                       // from an origin incarnation older than mine
)

// judgeFeed returns the verdict on feed for a receiver at last that
// has seen epoch mine. Epoch 0, a pre-epoch origin, is never fenced. A
// feed carries no entry boundaries, so an overlap cannot be trimmed to
// (last, Seq]. Adopting a newer epoch is the receiver's business.
func judgeFeed(feed InvalidationFeed, last, mine uint64) feedVerdict {
	switch {
	case feed.Epoch != 0 && feed.Epoch < mine:
		return feedFenced
	case feed.Reset:
		return feedReset
	case feed.Since > last:
		return feedGap
	case feed.Seq <= last:
		return feedDuplicate
	case feed.Since < last:
		return feedOverlap
	}
	return feedApply
}

// pushAck is an edge's answer to one push: the sequence it now stands
// at, and the newest origin epoch it has seen — a pushing zombie
// learns of its own fencing from the ack.
type pushAck struct {
	Ack   uint64 `json:"ack"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// appendPushAck appends the ack's JSON, the bytes json.Marshal of
// pushAck{ack, epoch} produces, to dst.
func appendPushAck(dst []byte, ack, epoch uint64) []byte {
	dst = strconv.AppendUint(append(dst, `{"ack":`...), ack, 10)
	if epoch != 0 {
		dst = strconv.AppendUint(append(dst, `,"epoch":`...), epoch, 10)
	}
	return append(dst, '}')
}

// parsePushAck reads an ack in place. Both push surfaces answer with
// appendPushAck, so a body that is not exactly the bytes appendPushAck
// builds for the numbers read is an error: the numbers are read
// loosely, then the body is checked against their re-encoding.
func parsePushAck(body []byte) (pushAck, error) {
	var a pushAck
	rest, _ := bytes.CutPrefix(body, []byte(`{"ack":`))
	a.Ack, rest = cutDigits(rest)
	if tail, ok := bytes.CutPrefix(rest, []byte(`,"epoch":`)); ok {
		a.Epoch, _ = cutDigits(tail)
	}
	var buf [64]byte
	if !bytes.Equal(body, appendPushAck(buf[:0], a.Ack, a.Epoch)) {
		return pushAck{}, fmt.Errorf("malformed push ack %q", body)
	}
	return a, nil
}

// cutDigits reads the decimal digits at the front of b, wrapping past
// 2⁶⁴ — parsePushAck's re-encoding check rejects what wrapped — and
// returns the rest of b.
func cutDigits(b []byte) (uint64, []byte) {
	var v uint64
	n := 0
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		v = v*10 + uint64(b[n]-'0')
	}
	return v, b[n:]
}

// writePushAck answers a push with its ack, built on the stack; with
// try set it sends only if the transport takes the reply whole now.
func writePushAck(w *http2.ResponseWriter, ack, epoch uint64, try bool) bool {
	var buf [64]byte
	return replyControl(w, 200, "application/json", appendPushAck(buf[:0], ack, epoch), try)
}

// invalEntry is one retained log entry. The log's seq strictly
// increases, which is what lets feedLocked binary-search it.
type invalEntry struct {
	seq   uint64
	paths []string
}

// subscriber is one edge registered for push fan-out, with the one
// goroutine (pusher) that feeds it for the life of the subscription.
type subscriber struct {
	name string
	addr string
	rc   *core.ResilientClient

	// kick holds at most one wake-up for the pusher. A kick that lands
	// while a push is in flight stays queued, so the pusher looks at the
	// head again after it: no Invalidate can fall between its last look
	// and its sleep.
	kick chan struct{}
	stop chan struct{} // closed by halt: the subscription is over
	done chan struct{} // closed by the pusher as it exits
	path []byte        // the pusher's scratch: one push request path

	// watchdog cuts the transport when a push goes unanswered for
	// pushTimeout; conn is the transport rc dialled last. The pusher
	// arms it at its first push: a stopped timer can stay in the
	// runtime's heap, holding s, until its first deadline passes.
	watchdog *time.Timer
	connMu   sync.Mutex
	conn     net.Conn

	mu    sync.Mutex
	acked uint64 // newest sequence the edge confirmed applying
}

// errUnsubscribed fails a dial for a subscription that has ended.
var errUnsubscribed = errors.New("cdn: subscription ended")

func newSubscriber(name, addr string, acked uint64, dial core.DialFunc) *subscriber {
	s := &subscriber{
		name:  name,
		addr:  addr,
		acked: acked,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.rc = core.NewResilientClient(func() (net.Conn, error) {
		select {
		case <-s.stop:
			return nil, errUnsubscribed
		default:
		}
		nc, err := dial()
		if err == nil {
			s.connMu.Lock()
			s.conn = nc
			s.connMu.Unlock()
		}
		return nc, err
	}, device.Workstation, nil, core.RetryPolicy{MaxAttempts: 1})
	return s
}

// wake asks the pusher to bring the edge to the head; a wake-up
// already pending covers this one.
func (s *subscriber) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// cut closes the transport rc dialled last, failing whatever push is
// in flight on it (a blackholed handshake included).
func (s *subscriber) cut() {
	s.connMu.Lock()
	nc := s.conn
	s.connMu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// halt ends the subscription and returns once the pusher has exited:
// a push in flight fails now rather than at its deadline, and a dial
// after this refuses. Whoever removes s from Origin.subs calls it,
// once, holding no lock.
func (s *subscriber) halt() {
	close(s.stop)
	s.cut()
	<-s.done
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
	// (see Follow), not owning the sequence space.
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

	// pushPath is the push request path a pusher built last: the
	// subscribers that stand at the same position share it (drain).
	pushPath string

	epoch atomic.Uint64 // this incarnation's fencing epoch
	role  atomic.Int32  // OriginRole
	// epochMu serializes the writers of epoch (Promote, adoptEpoch) and
	// the standby → primary flip; readers use the atomics.
	epochMu sync.Mutex

	// heardAt is when the last mirror feed was accepted (or the origin
	// was built): a standby's liveness evidence for its primary.
	// Guarded by mu.
	heardAt time.Time

	// followCancel and followDone stop and await Follow's loop; nil
	// until Follow.
	followCancel context.CancelFunc
	followDone   chan struct{}

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
	mirrorPolls   telemetry.Counter // successful Follow polls
	mirrorErrors  telemetry.Counter // failed Follow polls (before and after promotion)
	zombieSeen    telemetry.Counter // Follow polls the old primary answered fenced
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
	o := &Origin{srv: srv, cfg: cfg, maxLog: maxLog, subs: map[string]*subscriber{}, heardAt: time.Now()}
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
// reset when the log no longer reaches back that far. Its Paths are
// the caller's own.
func (o *Origin) Feed(since uint64) InvalidationFeed {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.feedRequests.Add(1)
	feed := o.feedLocked(since)
	if feed.Reset {
		o.feedResets.Add(1)
	}
	feed.Paths = slices.Clone(feed.Paths) // feedLocked may lend the log's
	return feed
}

// feedLocked builds the feed for one position; callers hold o.mu. Its
// Paths may be the log's own (see below): they are only to be read.
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
	// The log is in seq order, so the entries after since are a suffix.
	// A suffix of one entry, the push fan-out's usual case, lends that
	// entry's paths: a log entry's paths never change, and the full
	// slice expression keeps an append from writing into them.
	from := sort.Search(len(o.log), func(i int) bool { return o.log[i].seq > since })
	if tail := o.log[from:]; len(tail) == 1 {
		p := tail[0].paths
		feed.Paths = p[:len(p):len(p)]
		return feed
	}
	for _, e := range o.log[from:] {
		feed.Paths = append(feed.Paths, e.paths...)
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
// the pushers drain anything subscribers are missing. Idempotent;
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
// at — the mirror's ack. The entry granularity is the applied feed:
// one batched entry at its Seq covering every path it carried. A
// position inside a batch is not one the standby can answer exactly:
// an edge polling from there gets the whole batch, a superset of what
// it missed. No range is logged twice, since an overlap is not logged.
func (o *Origin) MirrorFeed(feed InvalidationFeed) uint64 {
	if o.Role() != RoleStandby {
		// Promoted (or never standby): we own the sequence space now;
		// ack our head so a still-pushing old primary stops.
		return o.Seq()
	}
	o.observeEpoch(feed.Epoch)
	o.mu.Lock()
	defer o.mu.Unlock()
	switch judgeFeed(feed, o.seq, o.epoch.Load()) {
	case feedFenced:
		// A deposed incarnation is still feeding us; refuse silently —
		// our ack carries our epoch, which tells it to fence.
		return o.seq
	case feedReset, feedGap:
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
	case feedDuplicate:
		// Already logged (a push raced our poll).
	case feedOverlap:
		// Log nothing and ack o.seq: the primary's drain re-pushes
		// (o.seq, Seq], or the next follow poll brings it.
	case feedApply:
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
	o.heardAt = time.Now()
	return o.seq
}

// standbyName is the name a following standby polls its primary under,
// and so its entry in the primary's subscriber table.
const standbyName = "standby"

// Follow runs a standby's side of the failover ladder until Close. It
// polls the primary at dial every poll (jittered ±20%; <= 0 means
// 250ms), advertising advertise, when set, so that the primary also
// pushes feeds between polls, and mirrors each feed through MirrorFeed.
// Any accepted feed, pushed or polled, proves the primary alive, so
// there is no heartbeat protocol to disagree with the data path:
//
//  1. After 8 polls of silence the standby calls Promote: the epoch is
//     bumped past the primary's and persisted before the role flips.
//  2. Edges list the standby after the primary in their origin
//     EndpointSet: the dead primary's breaker opens, Pick falls through
//     to the standby, and its higher epoch tells every edge a failover
//     happened (adopted, never a reset: the sequence space continued).
//  3. The promoted standby keeps polling the old primary with its new
//     epoch on the request. A restarted zombie sees it, fences itself
//     and answers 409, so it cannot split the sequence space even if
//     some edge still has it sticky.
//
// The trigger is a silence timeout, not a quorum: the deployment is
// one primary and one standby, the failure that matters is the
// primary process dying, and the epoch fence bounds the damage of a
// false positive. Call Follow once, on an origin built with
// OriginConfig{Standby: true}.
func (o *Origin) Follow(dial core.DialFunc, advertise string, poll time.Duration) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	// One attempt a poll, bounded by the poll's context: a dead
	// primary costs one failed dial per tick, not a retry storm.
	rc := core.NewResilientClient(dial, device.Workstation, nil, core.RetryPolicy{MaxAttempts: 1})
	ctx, cancel := context.WithCancel(context.Background())
	o.followCancel, o.followDone = cancel, make(chan struct{})
	go o.follow(ctx, rc, advertise, poll)
}

func (o *Origin) follow(ctx context.Context, rc *core.ResilientClient, advertise string, poll time.Duration) {
	defer close(o.followDone)
	defer rc.Close()
	rng := newJitterRng(nameSeed(standbyName))
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(jitterDuration(poll, rng)):
		}
		pctx, cancel := context.WithTimeout(ctx, 4*poll)
		feed, err := pollFeed(pctx, rc, standbyName, advertise, o.Seq(), o.Epoch())
		cancel()
		switch {
		case errors.Is(err, errStatus(statusFenced)):
			// Only a fenced origin answers 409: the old primary saw
			// our (or someone's) newer epoch and stood down.
			o.zombieSeen.Add(1)
		case err != nil:
			o.mirrorErrors.Add(1)
		default:
			// A no-op after promotion: the probe's outcome alone matters then.
			o.MirrorFeed(feed)
			o.mirrorPolls.Add(1)
		}
		if o.Role() == RoleStandby && o.silence() >= 8*poll {
			o.Promote()
		}
	}
}

// silence is how long ago the last mirror feed was accepted.
func (o *Origin) silence() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return time.Since(o.heardAt)
}

// Subscribe registers (or re-dials) an edge for push fan-out and
// immediately brings it current. since is the newest sequence the edge
// has already applied — a new subscriber is born at that watermark, so
// its pusher cannot deliver the whole retained log (or a spurious
// reset) to an edge that is in fact current. A re-dial replaces the
// subscriber and stops the old one's pusher. Called automatically when
// a poll carries the subscription headers; exported for in-process
// wiring.
func (o *Origin) Subscribe(name, addr string, since uint64, dial core.DialFunc) {
	o.subMu.Lock()
	old, ok := o.subs[name]
	if ok && old.addr == addr && addr != "" {
		o.subMu.Unlock()
		old.wake()
		return
	}
	s := newSubscriber(name, addr, since, dial)
	o.subs[name] = s
	o.subMu.Unlock()
	go o.pusher(s)
	s.wake()
	if ok {
		old.halt()
	}
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

// Close stops Follow's loop, ends every subscription — in-flight
// pushes fail fast and the pushers have exited when it returns — and
// drops the durable log handle.
func (o *Origin) Close() {
	if o.followCancel != nil {
		o.followCancel()
		<-o.followDone
	}
	o.subMu.Lock()
	subs := o.subs
	o.subs = map[string]*subscriber{}
	o.subMu.Unlock()
	for _, s := range subs {
		s.halt()
	}
	o.mu.Lock()
	if o.dlog != nil {
		o.dlog.close()
		o.dlog = nil
	}
	o.mu.Unlock()
}

// pushAll wakes every subscriber's pusher.
func (o *Origin) pushAll() {
	o.subMu.Lock()
	for _, s := range o.subs {
		s.wake()
	}
	o.subMu.Unlock()
}

// pusher feeds one subscriber for the life of its subscription: each
// wake-up drains it to the head. On exit it drops the transport, which
// a push racing halt may have dialled after halt cut the last one.
func (o *Origin) pusher(s *subscriber) {
	defer close(s.done)
	defer s.rc.Close()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		o.drain(s)
	}
}

// drain pushes s from its acked position and adopts the ack, until the
// edge stands at the head or delivery fails. Only a primary pushes: a
// standby's subscribers are kept registered (so promotion inherits the
// fan-out list warm) but not fed — the primary is already pushing them
// the same entries — and a fenced origin must go quiet. Failures are
// abandoned, not retried in place: the edge's anti-entropy poll repairs
// the gap, and the next Invalidate (or poll observation) wakes the
// pusher again.
func (o *Origin) drain(s *subscriber) {
	for o.Role() == RolePrimary {
		s.mu.Lock()
		acked := s.acked
		s.mu.Unlock()
		o.mu.Lock()
		if acked >= o.seq {
			o.mu.Unlock()
			return
		}
		feed := o.feedLocked(acked)
		// The pusher builds the path in its scratch; only a path no
		// other pusher made last becomes a string, so the edges that
		// stand at the head share one per log entry.
		s.path = appendPushPath(s.path[:0], feed)
		if string(s.path) != o.pushPath {
			o.pushPath = string(s.path)
		}
		path := o.pushPath
		o.mu.Unlock()
		ack, err := o.pushOnce(s, path, feed.Reset)
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

// pushOnce delivers one feed, as its push request path, to one
// subscriber and returns its ack. The watchdog, not a per-push
// context, bounds the wait.
func (o *Origin) pushOnce(s *subscriber, path string, reset bool) (uint64, error) {
	o.pushes.Add(1)
	if reset {
		o.pushResets.Add(1)
	}
	if s.watchdog == nil {
		s.watchdog = time.AfterFunc(pushTimeout, s.cut)
	} else {
		s.watchdog.Reset(pushTimeout)
	}
	raw, err := s.rc.FetchRawContext(context.Background(), path)
	s.watchdog.Stop()
	if err != nil {
		return 0, err
	}
	if raw.Status != 200 {
		return 0, fmt.Errorf("push status %d", raw.Status)
	}
	ack, err := parsePushAck(raw.Body)
	if err != nil {
		return 0, err
	}
	if !o.observeEpoch(ack.Epoch) {
		// The edge has seen a newer epoch than ours: we are the
		// zombie. observeEpoch already fenced us; stop this drain.
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
				return net.DialTimeout("tcp", addr, pushTimeout)
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
		writePushAck(w, o.MirrorFeed(feed), o.epoch.Load(), false)
	default:
		writeControl(w, 404, "text/plain; charset=utf-8", []byte("unknown control endpoint\n"))
	}
}

// The push wire form is the feed as a query, keys in sorted order —
// the bytes url.Values.Encode gives for it, so a peer that reads it
// with url.ParseQuery gets the same feed:
//
//	/sww-cdn/push?epoch=E&paths=P&reset=1&seq=N&since=S
//
// paths is the comma-joined list of the paths, each query-escaped, and
// the list escaped once more as the value, so a comma or '%' in a path
// survives both decodings; reset appears only when set, paths only
// when the feed has any.

// appendPushPath appends the push request path for feed to dst.
func appendPushPath(dst []byte, feed InvalidationFeed) []byte {
	dst = strconv.AppendUint(append(dst, pushPath+"?epoch="...), feed.Epoch, 10)
	if len(feed.Paths) > 0 {
		dst = append(dst, "&paths="...)
		for i, p := range feed.Paths {
			if i > 0 {
				dst = append(dst, "%2C"...)
			}
			dst = appendPathEscaped(dst, p)
		}
	}
	if feed.Reset {
		dst = append(dst, "&reset=1"...)
	}
	dst = strconv.AppendUint(append(dst, "&seq="...), feed.Seq, 10)
	return strconv.AppendUint(append(dst, "&since="...), feed.Since, 10)
}

// appendPathEscaped appends p query-escaped twice, as
// url.QueryEscape(url.QueryEscape(p)): unreserved bytes stay, a space
// becomes "%2B" (the first pass's '+', escaped), and any other byte
// "%25XX" (its "%XX", escaped).
func appendPathEscaped(dst []byte, p string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, "%2B"...)
		default:
			dst = append(dst, '%', '2', '5', hex[c>>4], hex[c&15])
		}
	}
	return dst
}

// The ways a push query fails to parse, as url.ParseQuery words them.
var (
	errQuerySemicolon = errors.New("invalid semicolon separator in query")
	errQueryEscape    = errors.New("invalid URL escape in query")
)

// parseFeedQuery decodes the push wire form back into a feed exactly as
// url.ParseQuery and url.Values.Get would: pairs split on '&', a ';' in
// any pair or a malformed escape in any key or value is an error, the
// first value of a key wins, and a path that is empty or badly escaped
// is dropped. The standby mirror surface keeps the paths it decodes.
func parseFeedQuery(query string) (InvalidationFeed, error) {
	feed, paths, err := parsePush(query)
	if err != nil {
		return InvalidationFeed{}, err
	}
	var scratch [256]byte
	list, _ := unescapeQuery(scratch[:0], paths) // parsePush checked it
	for p, rest, ok := nextPath(list); ok; p, rest, ok = nextPath(rest) {
		feed.Paths = append(feed.Paths, string(p))
	}
	return feed, nil
}

// parsePush is parseFeedQuery less the paths: it returns the feed
// without them and the paths value as it came, still escaped. It walks
// the query in place and builds nothing, so the edge, which only looks
// its pushed paths up, applies a push without a string of its own.
func parsePush(query string) (feed InvalidationFeed, paths string, err error) {
	var (
		seen    uint8 // one bit per key taken
		scratch [256]byte
	)
	first := func(bit uint8) bool {
		taken := seen&bit != 0
		seen |= bit
		return !taken
	}
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if strings.Contains(pair, ";") {
			return InvalidationFeed{}, "", errQuerySemicolon
		}
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		key, ok := unescapeQuery(scratch[:0], k)
		var val []byte
		if ok {
			val, ok = unescapeQuery(key[len(key):], v) // after the key, which stays readable
		}
		if !ok {
			return InvalidationFeed{}, "", errQueryEscape
		}
		switch string(key) {
		case "epoch":
			if first(1) {
				feed.Epoch, _ = strconv.ParseUint(string(val), 10, 64)
			}
		case "paths":
			if first(2) {
				paths = v
			}
		case "reset":
			if first(4) {
				feed.Reset = string(val) == "1"
			}
		case "seq":
			if first(8) {
				feed.Seq, _ = strconv.ParseUint(string(val), 10, 64)
			}
		case "since":
			if first(16) {
				feed.Since, _ = strconv.ParseUint(string(val), 10, 64)
			}
		}
	}
	return feed, paths, nil
}

// nextPath cuts the next path off list, the once-unescaped paths value
// (comma-separated), unescaping it again in place. Empty and badly
// escaped elements are skipped; ok is false once list is spent.
func nextPath(list []byte) (path, rest []byte, ok bool) {
	for len(list) > 0 {
		var elem []byte
		elem, list, _ = bytes.Cut(list, []byte{','})
		if p, ok := unescapeQuery(elem[:0], elem); ok && len(p) > 0 {
			return p, list, true
		}
	}
	return nil, nil, false
}

// unescapeQuery appends s, decoded as url.QueryUnescape decodes it, to
// dst: "+" is a space and "%XX" one byte. It reports false where
// QueryUnescape fails, on a '%' without two hex digits after it.
// Decoding never writes ahead of what it has read, so dst may be
// s[:0] when s is a byte slice.
func unescapeQuery[S string | []byte](dst []byte, s S) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return dst, false
			}
			dst = append(dst, unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 2
		case '+':
			dst = append(dst, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst, true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}

// writeControl answers a control request.
func writeControl(w *http2.ResponseWriter, status int, contentType string, body []byte) {
	// A failed write means the asking node is gone; it will ask again.
	replyControl(w, status, contentType, body, false)
}

// replyControl sends one control reply; with try set it sends only if
// the transport takes the whole reply now (TryRespond), and reports
// whether it did. body is copied before it returns.
func replyControl(w *http2.ResponseWriter, status int, contentType string, body []byte, try bool) bool {
	var store [2]hpack.HeaderField
	fields := append(store[:0],
		hpack.HeaderField{Name: "content-type", Value: contentType},
		hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(len(body))})
	if try {
		return w.TryRespond(status, body, fields...)
	}
	_ = w.Respond(status, body, fields...)
	return true
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
// sequence number onto reg, and on an origin built as a standby the
// counters of its Follow loop.
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
	if o.cfg.Standby {
		reg.Adopt("sww_standby_mirror_polls_total", &o.mirrorPolls)
		reg.Adopt("sww_standby_mirror_errors_total", &o.mirrorErrors)
		reg.Adopt("sww_standby_zombie_fenced_total", &o.zombieSeen)
		reg.GaugeFunc("sww_standby_silence_seconds", func() float64 { return o.silence().Seconds() })
	}
	reg.GaugeFunc("sww_origin_role", func() float64 { return float64(o.role.Load()) })
	reg.GaugeFunc("sww_origin_epoch", func() float64 { return float64(o.epoch.Load()) })
	reg.GaugeFunc("sww_cdn_origin_seq", func() float64 { return float64(o.Seq()) })
	reg.GaugeFunc("sww_cdn_origin_subscribers", func() float64 {
		o.subMu.Lock()
		defer o.subMu.Unlock()
		return float64(len(o.subs))
	})
}

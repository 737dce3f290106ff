package cdn

// The live edge replica: terminates SWW HTTP/2 from terminal clients
// and serves prompt pages and assets from a local byte-capped cache
// shard, pulling misses from the origin over a health-tracked
// ResilientClient. The edge's whole job is staying useful while
// something is broken:
//
//   - Origin dead or blackholed: warm entries keep being served past
//     their TTL, up to MaxStale, with the staleness stamped on the
//     response (x-sww-stale-age) so clients know what they got. Once
//     the origin's breaker is open the edge fails static — requests
//     are answered from the shard immediately and revalidation moves
//     to the background, so a dead origin costs terminal clients one
//     retry ladder total, not one per request.
//   - Origin down AND the shard cold for a key: peer-fill. Before
//     giving up to serve-stale/502, the edge consults the key's
//     ring-successor peers (hedged, gated on each peer's breaker
//     being closed) with a no-recurse marker; a warm peer turns N
//     independent caches into one mesh. Peer-served staleness is
//     preserved, not laundered: the filled entry is backdated by the
//     peer's stale age so x-sww-stale-age keeps telling the truth.
//   - A peer edge dead: its breaker opens (suspect), the membership
//     sweep's probes carry its failure run on to dead, remove it from
//     the placement ring (resharding its keys onto the survivors) and
//     re-admit it when a heartbeat lands again. Requests for keys the
//     ring assigns to someone else are counted as failovers and served
//     anyway (consistent hashing is placement advice, not an ACL).
//   - Origin unpublished content meanwhile: invalidations arrive
//     twice — pushed by the origin to subscribed edges (acked, with
//     per-edge sequence tracking) for low latency, and reconciled by
//     the jittered anti-entropy poller, which catches up from the
//     last applied sequence on reconnect. A partition delays
//     invalidations but never loses them; a feed reset (log truncated
//     past our position) flushes the whole shard; a push that would
//     skip sequence numbers is refused and repaired by the poller.
//   - The process itself dying: with SnapshotPath set, the shard
//     and lastSeq are periodically snapshotted to disk and
//     reloaded on boot, then re-validated against the invalidation
//     log — a restarted edge serves warm instead of stampeding the
//     origin with a cold shard's worth of misses.
//
// Cache entries are keyed by path plus the terminal client's
// negotiated ability, because the same path serves different bytes to
// a generative client (prompt page) and a traditional one (rendered
// page). The upstream fetch is raw — transit bytes in, the same
// transit bytes out — so prompt pages cross the backbone exactly once
// and stay prompts.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/telemetry"
)

// EdgeConfig shapes one edge replica.
type EdgeConfig struct {
	// Name identifies this edge on the ring, in the x-sww-edge
	// response header, and in peer lists.
	Name string

	// TTL is how long a cached entry is fresh. <= 0 means 30s.
	TTL time.Duration

	// MaxStale is how far past its TTL an entry may still be served
	// when the origin is unreachable. Zero means 10m; stale serving
	// never happens while the origin answers. It bounds how long a
	// fully partitioned edge can keep serving old content even if the
	// invalidation poller never reconnects.
	MaxStale time.Duration

	// PollInterval paces the invalidation poller (the anti-entropy
	// repair loop behind push delivery). <= 0 means 250ms. Each tick
	// is jittered ±20% so a fleet booted together does not poll the
	// origin in lockstep.
	PollInterval time.Duration

	// Retry shapes the upstream (edge → origin) retry ladder. Keep
	// MaxAttempts low and PeerTimeout tight: a dead origin should fail
	// fast into stale serving; one that never answers is cut at
	// upstreamBudget.
	Retry core.RetryPolicy

	// Peers names every edge in the fleet, this one included; it seeds
	// the ring this edge uses to recognise failover traffic. Empty
	// means a single-edge ring of just Name.
	Peers []string

	// PeerDials maps peer names to dials for the edge-to-edge mesh
	// transport (heartbeats and peer-fill). Peers without a dial stay
	// placement-only: on the ring, but never probed or filled from.
	// An entry for Name itself is ignored.
	PeerDials map[string]core.DialFunc

	// AdvertiseAddr, when set, rides on every invalidation poll so
	// the origin can subscribe this edge for push fan-out (and knows
	// where to dial). Empty means pull-only invalidation.
	AdvertiseAddr string

	// Heartbeat paces the membership sweep over PeerDials and bounds
	// one request to a peer, probe or peer-fill. <= 0 means 500ms. A
	// silent peer is suspect after about 3 heartbeats and dead after
	// about 6 (see membership.go).
	Heartbeat time.Duration

	// SnapshotPath, when set, enables crash-safe warm restart: the
	// shard and lastSeq are snapshotted there periodically and
	// on Close, and reloaded by NewEdge.
	SnapshotPath string

	// SnapshotInterval paces background snapshots. <= 0 means 5s.
	SnapshotInterval time.Duration

	// RetryBudgetRatio caps upstream retries at this fraction of
	// recent request volume, shared across every pull path (sync
	// misses, background revalidation, the invalidation poller). 0
	// means core.DefaultRetryBudgetRatio; negative disables the
	// budget.
	RetryBudgetRatio float64
}

// edgeCacheBytes caps an edge's local cache shard.
const edgeCacheBytes = 8 << 20

func (c EdgeConfig) ttl() time.Duration {
	if c.TTL <= 0 {
		return 30 * time.Second
	}
	return c.TTL
}

func (c EdgeConfig) maxStale() time.Duration {
	if c.MaxStale <= 0 {
		return 10 * time.Minute
	}
	return c.MaxStale
}

func (c EdgeConfig) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 250 * time.Millisecond
	}
	return c.PollInterval
}

func (c EdgeConfig) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return 500 * time.Millisecond
	}
	return c.Heartbeat
}

func (c EdgeConfig) snapshotInterval() time.Duration {
	if c.SnapshotInterval <= 0 {
		return 5 * time.Second
	}
	return c.SnapshotInterval
}

// peerFillFanout is how many ring-successor peers a breaker-open miss
// consults; peerFillTimeout bounds one whole hedged consultation;
// hedgeDelay staggers the candidates so the second peer is only asked
// when the first is slow.
const (
	peerFillFanout  = 2
	peerFillTimeout = 250 * time.Millisecond
	hedgeDelay      = 50 * time.Millisecond
)

// peerFillHeader marks an edge-to-edge fill request: the receiving
// peer answers from its shard only — no origin pull, no recursive
// peer-fill — so a mesh-wide cold key costs one hop, not a storm.
const peerFillHeader = "x-sww-peer-fill"

// edgeEntry is one cached raw reply with its freshness clock.
type edgeEntry struct {
	raw     core.RawReply
	path    string // bare path, for the snapshot
	bodyLen string // strconv of len(raw.Body), for content-length
	added   time.Time
}

// An Edge is one live edge replica.
type Edge struct {
	cfg      EdgeConfig
	ring     *Ring
	upstream *core.ResilientClient
	h2       *http2.Server

	cache *overload.ByteLRU
	sf    overload.Group

	// gens has bit g set once an entry of ability g has been stored:
	// the abilities whose shard keys an invalidation removes. A bit is
	// never cleared, so no entry outlives its bit. Every g is at most
	// http2.GenKnown: core.EffectivePeerGen masks a forwarded ability,
	// and a negotiated one is within the GenFull the edge advertises.
	gens atomic.Uint64

	// feedMu serializes invalidation application between the
	// anti-entropy poller and the push endpoint, so lastSeq moves
	// monotonically and a flush cannot interleave with a push apply.
	feedMu  sync.Mutex
	lastSeq atomic.Uint64 // newest invalidation sequence applied

	// originEpoch is the newest origin epoch seen on any feed or
	// push. A feed carrying an older (non-zero) epoch comes from a
	// fenced zombie and is refused; a newer one is a failover — the
	// promoted standby is the authority now.
	originEpoch atomic.Uint64

	// budget is the shared retry budget over every upstream pull path
	// (nil when disabled); see EdgeConfig.RetryBudgetRatio.
	budget *core.RetryBudget

	// mesh is the live membership over PeerDials; nil when the edge
	// has no dialable peers.
	mesh *Membership

	// pollerOn gates request-path revalidation: the edge wants exactly
	// one background prober, and when the invalidation poller runs it
	// is that prober — the serve path then stays allocation-free.
	pollerOn atomic.Bool

	// baseCtx scopes the edge's own upstream fetches (fetchUpstream:
	// pulls and revalidations); Close cancels it. upCtx is the deadline
	// context the fetches starting now share (upstreamCtx), upDeadline
	// its deadline; both are guarded by upMu.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	upMu       sync.Mutex
	upCtx      context.Context
	upDeadline time.Time

	pollCtx    context.Context
	pollCancel context.CancelFunc
	pollDone   chan struct{}
	snapDone   chan struct{}
	sweepDone  chan struct{}

	requests       telemetry.Counter
	hits           telemetry.Counter
	misses         telemetry.Counter
	staleServes    telemetry.Counter
	failovers      telemetry.Counter
	upstreamErrors telemetry.Counter
	errors         telemetry.Counter // 5xx answers to terminal clients
	invalApplied   telemetry.Counter
	invalResets    telemetry.Counter
	pollErrors     telemetry.Counter
	pushApplied    telemetry.Counter // invalidation paths applied via push
	pushGaps       telemetry.Counter // pushes refused for skipping sequences
	pushOverlaps   telemetry.Counter // pushes skipped for re-covering applied sequences
	peerFills      telemetry.Counter // misses answered by a peer shard
	peerFillFails  telemetry.Counter // consultations that came back empty
	peerServes     telemetry.Counter // fill requests answered for peers
	snapSaves      telemetry.Counter
	snapErrors     telemetry.Counter
	snapRestored   atomic.Int64      // entries reloaded by the last boot
	originFailover telemetry.Counter // origin epoch advances adopted (failovers observed)
	epochFenced    telemetry.Counter // feeds/pushes refused for a stale origin epoch
}

// NewEdge builds an edge pulling from the origins in the endpoint set
// (usually one origin; more means origin failover too). If the config
// names a snapshot, the shard is reloaded from it before the edge
// serves. Call Start to run the invalidation poller, membership sweep
// and snapshot loop; StartConn to serve terminal clients.
func NewEdge(cfg EdgeConfig, origins *core.EndpointSet) *Edge {
	peers := cfg.Peers
	if len(peers) == 0 {
		peers = []string{cfg.Name}
	}
	e := &Edge{
		cfg:      cfg,
		ring:     NewRing(0, peers...),
		upstream: core.NewResilientClientEndpoints(origins, device.Workstation, nil, cfg.Retry),
		cache:    overload.NewByteLRU(edgeCacheBytes),
	}
	e.baseCtx, e.baseCancel = context.WithCancel(context.Background())
	if cfg.RetryBudgetRatio >= 0 {
		e.budget = core.NewRetryBudget(cfg.RetryBudgetRatio, 0)
		e.upstream.SetRetryBudget(e.budget)
	}
	e.h2 = &http2.Server{
		Handler: edgeHandler{e},
		// The edge advertises GenFull to terminal clients: it never
		// generates itself, it relays the client's ability upstream.
		Config: http2.Config{GenAbility: http2.GenFull},
	}
	e.buildMesh()
	if cfg.SnapshotPath != "" {
		e.loadSnapshot()
	}
	return e
}

// buildMesh wires one transport, and with it one breaker, to every
// dialable peer. The membership sweep reads the ring off those
// breakers: a peer declared dead is removed (its keys reshard onto
// survivors) and re-admitted the moment a heartbeat lands again.
func (e *Edge) buildMesh() {
	peers := map[string]*meshPeer{}
	for name, dial := range e.cfg.PeerDials {
		if name == e.cfg.Name || dial == nil {
			continue
		}
		p := newMeshPeer(name, dial, e.cfg.heartbeat())
		// Peer transports draw on the same budget as the upstream:
		// "pull paths" is one pool, so a dead origin plus dead peers
		// cannot each claim their own retry allowance.
		p.rc.SetRetryBudget(e.budget)
		peers[name] = p
		e.ring.Add(name)
	}
	if len(peers) > 0 {
		e.mesh = &Membership{ring: e.ring, peers: peers}
	}
}

// Name returns the edge's ring name.
func (e *Edge) Name() string { return e.cfg.Name }

// Ring returns the edge's view of the fleet placement ring.
func (e *Edge) Ring() *Ring { return e.ring }

// Membership returns the live peer membership, nil when the edge has
// no dialable peers.
func (e *Edge) Membership() *Membership { return e.mesh }

// Upstream returns the origin-facing resilient client (its endpoint
// set carries the health/breaker state).
func (e *Edge) Upstream() *core.ResilientClient { return e.upstream }

// LastSeq returns the newest invalidation sequence applied.
func (e *Edge) LastSeq() uint64 { return e.lastSeq.Load() }

// OriginEpoch returns the newest origin epoch seen on any feed.
func (e *Edge) OriginEpoch() uint64 { return e.originEpoch.Load() }

// RetryBudget returns the shared upstream retry budget, nil when
// disabled.
func (e *Edge) RetryBudget() *core.RetryBudget { return e.budget }

// observeOriginEpoch folds one feed's epoch into the edge's view and
// returns the view. A newer epoch is adopted; an advance past a known
// non-zero epoch is a failover — the promoted standby's first feed —
// and is counted as one.
func (e *Edge) observeOriginEpoch(epoch uint64) uint64 {
	for {
		cur := e.originEpoch.Load()
		if epoch <= cur {
			return cur
		}
		if e.originEpoch.CompareAndSwap(cur, epoch) {
			if cur != 0 {
				e.originFailover.Add(1)
			}
			return epoch
		}
	}
}

// noteUpstreamFenced records a feed refused for a stale epoch and
// rotates off the serving endpoint. The transport is healthy (it
// answered, and the ladder counted that as a success), so no failure
// count would ever move the sticky connection off the zombie while a
// promoted standby sits unused in the set.
func (e *Edge) noteUpstreamFenced() {
	e.epochFenced.Add(1)
	e.upstream.Rotate()
}

// StartConn serves one terminal-client connection in the background.
func (e *Edge) StartConn(c net.Conn) *http2.ServerConn { return e.h2.StartConn(c) }

// edgeHandler is the Edge as http2 sees it: every request on a
// goroutine of its own, and — first, for requests that arrived whole —
// an attempt on the connection's read loop.
type edgeHandler struct{ e *Edge }

func (h edgeHandler) ServeSWW(w *http2.ResponseWriter, r *http2.Request) { h.e.serve(w, r, false) }

func (h edgeHandler) TryServeSWW(w *http2.ResponseWriter, r *http2.Request) bool {
	return h.e.serve(w, r, true)
}

// serve answers one terminal-client request: local cache first,
// origin pull on miss, peer-fill when the origin is written off, then
// stale fallback.
//
// With inline set it is an attempt on a connection's read loop, which
// must not wait: it answers a fresh shard hit or a peer's fill request
// from the shard, a health probe, and a push it can apply without
// waiting (see servePush), and declines (false: nothing sent, nothing
// counted) everything from the miss ladder down. A declined request
// comes back with inline unset.
func (e *Edge) serve(w *http2.ResponseWriter, r *http2.Request, inline bool) bool {
	path := r.Path
	if strings.HasPrefix(path, ControlPrefix) {
		return e.serveControl(w, r, inline)
	}
	if r.Method != "GET" {
		if inline {
			return false
		}
		e.requests.Add(1)
		e.errors.Add(1)
		writeControl(w, 405, "text/plain; charset=utf-8", []byte("method not allowed\n"))
		return true
	}
	// The effective ability is the connection's negotiated one unless
	// a peer edge forwarded its own client's ability — peer-fill must
	// hit the same ability-keyed entry the terminal client would.
	gen := core.EffectivePeerGen(r.PeerGen, r.HeaderValue(core.EdgeGenHeader))
	// The shard key is built on the stack and a hit looks it up as
	// bytes; only the miss ladder below makes a string of it.
	var buf [128]byte
	kb := appendCacheKey(buf[:0], path, gen)
	now := time.Now()

	// A fill request from a peer edge answers from the shard only:
	// no origin pull, no recursion — the asking edge owns the retry
	// and fallback ladder for its client.
	if r.HeaderValue(peerFillHeader) != "" {
		return e.peerServe(w, kb, now, inline)
	}

	// Ring check: a request for a key the ring places on another edge
	// means the client's picker failed over to us (or the ring
	// resharded after an edge death). Count it and serve anyway.
	owner := e.ring.Lookup(path)
	failover := owner != "" && owner != e.cfg.Name

	if v, ok := e.cache.GetBytes(kb); ok {
		ent := v.(*edgeEntry)
		if age := now.Sub(ent.added); age <= e.cfg.ttl() {
			// Reply, then count: an attempt the transport declines
			// must leave no count behind.
			if !e.reply(w, ent, "hit", 0, inline) {
				return false
			}
			e.countRequest(failover)
			e.hits.Add(1)
			return true
		}
	}
	if inline {
		return false
	}
	e.countRequest(failover)
	key := string(kb)

	// Miss (or expired). While some origin endpoint is still believed
	// healthy, pull synchronously, coalescing concurrent misses for
	// the same key into one upstream fetch. Once the breaker says the
	// whole set is down, fail static instead: no terminal client is
	// parked on a retry ladder that is overwhelmingly likely to time
	// out — the answer comes from a peer shard or the stale copy now,
	// and a background revalidation (which doubles as the endpoint
	// probe) notices the heal.
	if e.upstream.Endpoints().AnyHealthy() {
		v, err, _ := e.sf.Do(key, func() (any, error) { return e.pull(key, path, gen) })
		if err == nil {
			ent := v.(*edgeEntry)
			e.misses.Add(1)
			e.reply(w, ent, "miss", 0, false)
			return true
		}
		e.upstreamErrors.Add(1)
	} else {
		e.upstreamErrors.Add(1)
		// With no poller running, the serve path must kick the probe
		// itself or the breaker would never see a heal.
		if !e.pollerOn.Load() {
			e.revalidate(key, path, gen)
		}
		// Origin written off: on a true miss, consult the key's ring
		// successors before giving up. A hit joins the shard so the
		// next request is local. With a servable local copy — stale
		// included — the fallback below wins instead: the peer's copy
		// is just as stale (fills preserve age), so the hop would buy
		// nothing and every request would pay it again.
		if !e.hasServable(key, now) {
			if ent, staleFor, ok := e.peerFill(r.Stream().Context(), key, path, gen); ok {
				e.peerFills.Add(1)
				e.reply(w, ent, "peer", staleFor, false)
				return true
			}
		}
	}

	// Upstream failed or written off and no peer could fill. Serve
	// the warm entry if one exists and is not too stale; that is the
	// edge tier's availability promise during an origin outage.
	if v, ok := e.cache.Get(key); ok {
		ent := v.(*edgeEntry)
		age := now.Sub(ent.added)
		if age <= e.cfg.ttl()+e.cfg.maxStale() {
			staleFor := age - e.cfg.ttl()
			if staleFor < 0 {
				staleFor = 0
			}
			e.staleServes.Add(1)
			e.reply(w, ent, "stale", staleFor, false)
			return true
		}
	}
	e.errors.Add(1)
	writeControl(w, 502, "text/plain; charset=utf-8", []byte("origin unreachable and no warm copy\n"))
	return true
}

// pull fetches key's reply from the origin and caches it if it is a
// 200. One pull answers every request coalesced on key, so it runs
// under none of their contexts — one client going away must not fail
// the others — but under the edge's own (see fetchUpstream). An
// uncached reply comes back in an entry of its own.
func (e *Edge) pull(key, path string, gen http2.GenAbility) (*edgeEntry, error) {
	raw, err := e.fetchUpstream(path, gen)
	if err != nil {
		return nil, err
	}
	if raw.Status != 200 {
		return &edgeEntry{raw: raw, bodyLen: strconv.Itoa(len(raw.Body))}, nil
	}
	return e.store(key, path, gen, raw), nil
}

// genHeaders[g] forwards ability g upstream, for each of the 64
// abilities an edge keys on (see Edge.gens): the lists are built once,
// shared and only read, so a pull or a peer fill names its client's
// ability without building a header.
var genHeaders = func() (t [http2.GenKnown + 1][]hpack.HeaderField) {
	for g := range t {
		t[g] = []hpack.HeaderField{{Name: core.EdgeGenHeader, Value: strconv.Itoa(g)}}
	}
	return t
}()

// countRequest books one terminal-client request that this edge is
// answering itself.
func (e *Edge) countRequest(failover bool) {
	e.requests.Add(1)
	if failover {
		e.failovers.Add(1)
	}
}

// hasServable reports whether the shard holds a copy of key that is
// still within the serve-stale window.
func (e *Edge) hasServable(key string, now time.Time) bool {
	v, ok := e.cache.Get(key)
	if !ok {
		return false
	}
	return now.Sub(v.(*edgeEntry).added) <= e.cfg.ttl()+e.cfg.maxStale()
}

// peerServe answers one peer-fill request from the local shard:
// fresh, stale-within-bounds, or an immediate 504 — never an origin
// pull, so a mesh-wide cold key cannot recurse into a pull storm.
// Like serve it counts a shard answer only once the reply is out, and
// it looks the key up as the bytes serve built it in.
func (e *Edge) peerServe(w *http2.ResponseWriter, key []byte, now time.Time, inline bool) bool {
	if v, ok := e.cache.GetBytes(key); ok {
		ent := v.(*edgeEntry)
		if age := now.Sub(ent.added); age <= e.cfg.ttl()+e.cfg.maxStale() {
			cache, staleFor := "hit", time.Duration(0)
			if age > e.cfg.ttl() {
				cache, staleFor = "stale", age-e.cfg.ttl()
			}
			if !e.reply(w, ent, cache, staleFor, inline) {
				return false
			}
			e.requests.Add(1)
			e.peerServes.Add(1)
			return true
		}
	}
	if inline {
		return false
	}
	e.requests.Add(1)
	writeControl(w, 504, "text/plain; charset=utf-8", []byte("peer shard cold\n"))
	return true
}

// peerFill consults up to peerFillFanout alive ring-successor peers
// for path, hedged: the first is asked immediately, each further
// candidate only after hedgeDelay more of silence, and the first 200
// wins. The filled entry joins the shard backdated by the peer's
// stale age, so staleness accounting survives the hop; peerFill returns
// that entry.
func (e *Edge) peerFill(ctx context.Context, key, path string, gen http2.GenAbility) (*edgeEntry, time.Duration, bool) {
	if e.mesh == nil {
		return nil, 0, false
	}
	var cands []*meshPeer
	for _, name := range e.ring.LookupN(path, e.ring.Len()) {
		p := e.mesh.peers[name]
		if p == nil || !p.ep.Healthy() {
			continue
		}
		cands = append(cands, p)
		if len(cands) == peerFillFanout {
			break
		}
	}
	if len(cands) == 0 {
		e.peerFillFails.Add(1)
		return nil, 0, false
	}
	fctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
	defer cancel()
	type fillResult struct {
		raw core.RawReply
		ok  bool
	}
	results := make(chan fillResult, len(cands))
	fields := []hpack.HeaderField{genHeaders[gen][0], {Name: peerFillHeader, Value: "1"}}
	for i, p := range cands {
		go func(i int, p *meshPeer) {
			if i > 0 {
				select {
				case <-fctx.Done():
					results <- fillResult{}
					return
				case <-time.After(time.Duration(i) * hedgeDelay):
				}
			}
			// The peer's client books the outcome on its breaker: a 504
			// "shard cold" answer is proof of life, a transport fault a
			// failure, and a loser cancelled by the winner nothing.
			raw, err := p.rc.FetchRawContext(fctx, path, fields...)
			if err != nil || raw.Status != 200 {
				results <- fillResult{}
				return
			}
			results <- fillResult{raw, true}
		}(i, p)
	}
	for range cands {
		select {
		case <-fctx.Done():
			e.peerFillFails.Add(1)
			return nil, 0, false
		case res := <-results:
			if !res.ok {
				continue
			}
			staleFor := res.raw.StaleAge
			// Backdate so our own TTL/stale clock continues where the
			// peer's left off instead of restarting from fresh.
			added := time.Now()
			if staleFor > 0 {
				added = added.Add(-(e.cfg.ttl() + staleFor))
			}
			return e.storeAt(key, path, gen, res.raw, added), staleFor, true
		}
	}
	e.peerFillFails.Add(1)
	return nil, 0, false
}

// serveControl answers the edge's own /sww-cdn/ surface: health for
// membership heartbeats, push for origin invalidation fan-out. With
// inline set it is a read-loop attempt, as serve's.
func (e *Edge) serveControl(w *http2.ResponseWriter, r *http2.Request, inline bool) bool {
	path, query, _ := strings.Cut(r.Path, "?")
	switch path {
	case healthPath:
		return replyControl(w, 200, "text/plain; charset=utf-8", []byte("ok\n"), inline)
	case pushPath:
		return e.servePush(w, query, inline)
	}
	if inline {
		return false
	}
	writeControl(w, 404, "text/plain; charset=utf-8", []byte("unknown control endpoint\n"))
	return true
}

// servePush applies one pushed invalidation batch and acks with the
// sequence this edge now stands at; the origin re-pushes from any ack
// above its watermark. With inline set it runs on the read loop and
// takes an apply or a duplicate only: it declines, before applying or
// counting anything, when feedMu.TryLock fails (a poll or a snapshot
// holds it) or on any other verdict (a reset may flush the whole
// shard, the rest count), and the goroutine re-serve handles the push
// from scratch. An inline apply whose ack the transport declines is
// re-served as a duplicate: acked, not applied again.
func (e *Edge) servePush(w *http2.ResponseWriter, query string, inline bool) bool {
	feed, paths, err := parsePush(query)
	if err != nil {
		if inline {
			return false
		}
		writeControl(w, 400, "text/plain; charset=utf-8", []byte("bad push query\n"))
		return true
	}
	if !inline {
		e.feedMu.Lock()
	} else if !e.feedMu.TryLock() {
		return false
	}
	v := judgeFeed(feed, e.lastSeq.Load(), e.observeOriginEpoch(feed.Epoch))
	if inline && v != feedApply && v != feedDuplicate {
		e.feedMu.Unlock()
		return false
	}
	switch v {
	case feedFenced:
		// A fenced zombie is still pushing. Refuse, and ack with the
		// newer epoch, which is how the zombie learns.
		e.epochFenced.Add(1)
	case feedReset:
		// The origin no longer knows what we missed: drop everything.
		e.invalResets.Add(1)
		e.flushLocked()
		e.lastSeq.Store(feed.Seq)
	case feedGap:
		// Refused; the ack says where we are, and the poller repairs.
		e.pushGaps.Add(1)
	case feedOverlap:
		// The origin's watermark lags ours (its push raced our poll).
		// The ack resyncs it, and it re-sends exactly (last, Seq].
		e.pushOverlaps.Add(1)
	case feedDuplicate:
		// Already applied: the poller caught us up, or this re-serves
		// an inline apply whose ack the transport declined.
	case feedApply:
		// Paths are decoded into the stack, keys removed as bytes.
		var scratch [256]byte
		list, _ := unescapeQuery(scratch[:0], paths) // parsePush checked it
		for p, rest, ok := nextPath(list); ok; p, rest, ok = nextPath(rest) {
			e.invalApplied.Add(uint64(invalidate(e, p)))
			e.pushApplied.Add(1)
		}
		e.lastSeq.Store(feed.Seq)
	}
	ack := e.lastSeq.Load()
	e.feedMu.Unlock()
	return writePushAck(w, ack, e.originEpoch.Load(), inline)
}

// reply writes an entry's reply back to the terminal client, stamped
// with the edge observability headers and the content-length the entry
// memoized. It is the edge's one reply-building site; with try set it
// sends only if the transport takes the whole reply without waiting,
// and reports whether it did.
func (e *Edge) reply(w *http2.ResponseWriter, ent *edgeEntry, cache string, staleFor time.Duration, try bool) bool {
	raw := &ent.raw
	// The field list lives on the stack; a warm edge hit is sent through
	// the same emitter as the origin's, which copies the body once.
	var store [6]hpack.HeaderField
	fields := append(store[:0],
		hpack.HeaderField{Name: "content-type", Value: raw.ContentType},
		hpack.HeaderField{Name: "content-length", Value: ent.bodyLen},
		hpack.HeaderField{Name: core.EdgeHeader, Value: e.cfg.Name},
		hpack.HeaderField{Name: core.EdgeCacheHeader, Value: cache})
	if raw.Mode != "" {
		fields = append(fields, hpack.HeaderField{Name: core.ModeHeader, Value: raw.Mode})
	}
	if staleFor > 0 {
		secs := int(staleFor / time.Second)
		if secs < 1 {
			secs = 1
		}
		fields = append(fields, hpack.HeaderField{Name: core.EdgeStaleHeader, Value: strconv.Itoa(secs)})
	}
	if try {
		return w.TryRespond(raw.Status, raw.Body, fields...)
	}
	// A failed write means the client is gone; there is no one to tell.
	_ = w.Respond(raw.Status, raw.Body, fields...)
	return true
}

// cacheKey is the shard key of path for a client of ability gen,
// "path|gen", as a string.
func cacheKey(path string, gen http2.GenAbility) string {
	var buf [128]byte
	return string(appendCacheKey(buf[:0], path, gen))
}

// appendCacheKey appends cacheKey(path, gen) to dst.
func appendCacheKey[S string | []byte](dst []byte, path S, gen http2.GenAbility) []byte {
	dst = append(append(dst, path...), '|')
	return strconv.AppendUint(dst, uint64(gen), 10)
}

// store caches one raw reply under key, cacheKey(path, gen). It
// returns the entry, whose content-length the reply that brought it in
// can send.
func (e *Edge) store(key, path string, gen http2.GenAbility, raw core.RawReply) *edgeEntry {
	return e.storeAt(key, path, gen, raw, time.Now())
}

// storeAt is store with an explicit freshness clock (peer fills and
// snapshot restores backdate entries). It marks gen in e.gens before
// the entry enters the shard, so an invalidation that starts once the
// entry is in removes it.
func (e *Edge) storeAt(key, path string, gen http2.GenAbility, raw core.RawReply, added time.Time) *edgeEntry {
	ent := &edgeEntry{raw: raw, path: path, bodyLen: strconv.Itoa(len(raw.Body)), added: added}
	e.gens.Or(1 << gen)
	e.cache.Add(key, ent, int64(len(raw.Body))+int64(len(key))+64)
	return ent
}

// revalidate refreshes key in the background. The singleflight keeps
// one in-flight refresh per key, and the upstream fetch claims the
// origin's probe slot when one is due — so the request path never
// does. A success stores the fresh entry and flips the endpoint
// healthy again, putting the next request back on the synchronous
// pull path.
func (e *Edge) revalidate(key, path string, gen http2.GenAbility) {
	go e.sf.Do("reval|"+key, func() (any, error) {
		raw, err := e.fetchUpstream(path, gen)
		if err == nil && raw.Status == 200 {
			e.store(key, path, gen, raw)
		}
		return nil, err
	})
}

// fetchUpstream fetches path from the origin for a client of ability
// gen, on the edge's behalf rather than any one request's: a pull or a
// revalidation. Close ends it, and so does its deadline (upstreamCtx):
// keepalive finds a dead origin, but one that takes a request and never
// answers still ACKs its PINGs, and must not hold the key's coalesced
// requests forever.
func (e *Edge) fetchUpstream(path string, gen http2.GenAbility) (core.RawReply, error) {
	return e.upstream.FetchRawContext(e.upstreamCtx(), path, genHeaders[gen]...)
}

// upstreamCtx returns the context a fetchUpstream starting now runs
// under. Fetches that start within upstreamSlack of one another share
// one, whose deadline is upstreamBudget after the first of them: each
// gets at least a full retry ladder and at most the budget, and none
// builds a context or a timer of its own. A replaced context is left to
// its deadline, since fetches may still run under it; Close ends them
// all through baseCtx.
func (e *Edge) upstreamCtx() context.Context {
	now := time.Now()
	budget := e.upstreamBudget()
	e.upMu.Lock()
	defer e.upMu.Unlock()
	if e.upCtx == nil || e.upDeadline.Sub(now) < budget-upstreamSlack {
		ctx, cancel := context.WithDeadline(e.baseCtx, now.Add(budget))
		_ = cancel // its deadline or baseCtx ends it; see above
		e.upCtx, e.upDeadline = ctx, now.Add(budget)
	}
	return e.upCtx
}

// upstreamSlack is what upstreamBudget allows for backoff beyond a full
// retry ladder.
const upstreamSlack = time.Second

// upstreamBudget bounds one fetchUpstream: a PeerTimeout (2s when
// unset) for each attempt of the upstream ladder, plus backoff slack.
func (e *Edge) upstreamBudget() time.Duration {
	attempts := e.cfg.Retry.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	per := e.cfg.Retry.PeerTimeout
	if per <= 0 {
		per = 2 * time.Second
	}
	return time.Duration(attempts)*per + upstreamSlack
}

// InvalidatePath drops every cached form of path and reports how many
// there were.
func (e *Edge) InvalidatePath(path string) int { return invalidate(e, path) }

// invalidate is InvalidatePath for a path held as a string or as bytes:
// it removes path's key for every ability the edge has stored, each key
// built on the stack and removed as bytes, so a pushed path is applied
// without being made a string.
func invalidate[S string | []byte](e *Edge, path S) int {
	var buf [128]byte
	n := 0
	for gens := e.gens.Load(); gens != 0; gens &= gens - 1 {
		gen := http2.GenAbility(bits.TrailingZeros64(gens))
		if e.cache.RemoveBytes(appendCacheKey(buf[:0], path, gen)) {
			n++
		}
	}
	return n
}

// Flush drops the whole shard — the response to a feed reset, where
// the origin can no longer say what exactly was unpublished.
func (e *Edge) Flush() {
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	e.flushLocked()
}

// flushLocked is Flush for callers already holding feedMu.
func (e *Edge) flushLocked() {
	e.cache.Each(func(key string, _ any, _ int64) { e.cache.Remove(key) })
}

// Start runs the background loops until Close: the anti-entropy
// invalidation poller (which doubles as the origin health prober —
// its fetches feed the endpoint breaker, so a failed-static edge
// notices the heal without terminal requests ever probing), the
// membership sweep over dialable peers, and the snapshot loop when
// persistence is configured.
func (e *Edge) Start() {
	e.pollCtx, e.pollCancel = context.WithCancel(context.Background())
	e.pollDone = make(chan struct{})
	e.pollerOn.Store(true)
	go e.pollLoop()
	if e.mesh != nil {
		e.sweepDone = make(chan struct{})
		go e.sweepLoop()
	}
	if e.cfg.SnapshotPath != "" {
		e.snapDone = make(chan struct{})
		go e.snapshotLoop()
	}
}

// Close stops the background loops, cancels in-flight background
// revalidations, writes a final snapshot when persistence is
// configured, and drops the upstream and peer connections.
func (e *Edge) Close() error {
	if e.pollCancel != nil {
		e.pollerOn.Store(false)
		e.pollCancel()
		<-e.pollDone
		if e.snapDone != nil {
			<-e.snapDone
		}
		if e.sweepDone != nil {
			<-e.sweepDone
		}
	}
	e.baseCancel()
	if e.cfg.SnapshotPath != "" {
		if err := e.SaveSnapshot(); err != nil {
			e.snapErrors.Add(1)
		}
	}
	if e.mesh != nil {
		for _, p := range e.mesh.peers {
			p.rc.Close()
		}
	}
	return e.upstream.Close()
}

// PollOnce polls the origin invalidation feed once and applies the
// result: targeted removals normally, a full flush on reset. This is
// the anti-entropy half of the invalidation protocol — push fan-out
// delivers fast, the poller guarantees convergence: a partitioned
// edge's first successful poll after the heal resumes from the last
// applied sequence, so every invalidation issued during the partition
// (pushed or not) lands before the edge goes back to trusting its
// shard. The poll also advertises this edge to the origin (name, and
// the push address when configured), so subscriptions survive an
// origin restart without any extra control traffic.
func (e *Edge) PollOnce(ctx context.Context) error {
	feed, err := pollFeed(ctx, e.upstream, e.cfg.Name, e.cfg.AdvertiseAddr, e.lastSeq.Load(), e.originEpoch.Load())
	if err != nil {
		e.pollErrors.Add(1)
		if errors.Is(err, errStatus(statusFenced)) {
			// The transport is healthy, so only an explicit rotation
			// moves the sticky endpoint preference off the zombie
			// and onto the promoted standby.
			e.noteUpstreamFenced()
		}
		return err
	}
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	switch judgeFeed(feed, e.lastSeq.Load(), e.observeOriginEpoch(feed.Epoch)) {
	case feedFenced:
		// The feed predates a failover we already lived through.
		e.pollErrors.Add(1)
		e.noteUpstreamFenced()
		return fmt.Errorf("stale origin epoch %d (have %d)", feed.Epoch, e.originEpoch.Load())
	case feedReset:
		e.invalResets.Add(1)
		e.flushLocked()
		e.lastSeq.Store(feed.Seq)
	case feedGap, feedDuplicate, feedOverlap:
		// A push moved lastSeq while the poll was in flight. Nothing
		// applies — an overlap would drop again entries refilled since
		// — and the next poll, from lastSeq, brings the rest.
	case feedApply:
		for _, p := range feed.Paths {
			e.invalApplied.Add(uint64(e.InvalidatePath(p)))
		}
		e.lastSeq.Store(feed.Seq)
	}
	return nil
}

// pollFeed asks rc's origin for the invalidation feed after since: the
// one poll of an edge and of a following standby. The request names the
// poller, advertises its push address when set, and rides epoch, the
// highest the poller has seen, when nonzero, so a zombie origin fences
// itself the moment any node that lived through the failover talks to
// it. A reply other than 200 is an errStatus; a fenced origin's is
// errStatus(statusFenced).
func pollFeed(ctx context.Context, rc *core.ResilientClient, name, advertise string, since, epoch uint64) (InvalidationFeed, error) {
	var feed InvalidationFeed
	path := invalidationsPath + "?since=" + strconv.FormatUint(since, 10)
	fields := []hpack.HeaderField{{Name: edgeNameHeader, Value: name}}
	if advertise != "" {
		fields = append(fields, hpack.HeaderField{Name: edgeAddrHeader, Value: advertise})
	}
	if epoch > 0 {
		fields = append(fields, hpack.HeaderField{Name: originEpochHeader, Value: strconv.FormatUint(epoch, 10)})
	}
	raw, err := rc.FetchRawContext(ctx, path, fields...)
	if err != nil {
		return feed, err
	}
	if raw.Status != 200 {
		return feed, errStatus(raw.Status)
	}
	err = json.Unmarshal(raw.Body, &feed)
	return feed, err
}

// pollLoop paces PollOnce with ±20% per-tick jitter (a fleet booted
// by one script must not poll in lockstep — at N edges the aligned
// ticks become a thundering herd on the origin), backing off up to 8×
// the base interval while the origin is unreachable so a partitioned
// edge does not hammer its side of the partition.
func (e *Edge) pollLoop() {
	defer close(e.pollDone)
	rng := newJitterRng(nameSeed(e.cfg.Name))
	base := e.cfg.pollInterval()
	interval := base
	for {
		select {
		case <-e.pollCtx.Done():
			return
		case <-time.After(jitterDuration(interval, rng)):
		}
		ctx, cancel := context.WithTimeout(e.pollCtx, 4*base)
		err := e.PollOnce(ctx)
		cancel()
		if err != nil && e.pollCtx.Err() == nil {
			interval *= 2
			if interval > 8*base {
				interval = 8 * base
			}
		} else {
			interval = base
		}
	}
}

// snapshotLoop persists the shard on a jittered interval so a crash
// loses at most one interval of fills. It shares the poller's
// lifetime: Close stops it and writes the final snapshot itself.
func (e *Edge) snapshotLoop() {
	defer close(e.snapDone)
	rng := newJitterRng(nameSeed(e.cfg.Name) + 1)
	for {
		select {
		case <-e.pollCtx.Done():
			return
		case <-time.After(jitterDuration(e.cfg.snapshotInterval(), rng)):
		}
		if err := e.SaveSnapshot(); err != nil {
			e.snapErrors.Add(1)
		}
	}
}

// sweepLoop runs the membership sweep every jittered heartbeat. Like
// the snapshot loop it shares the poller's lifetime.
func (e *Edge) sweepLoop() {
	defer close(e.sweepDone)
	rng := newJitterRng(nameSeed(e.cfg.Name))
	for {
		select {
		case <-e.pollCtx.Done():
			return
		case <-time.After(jitterDuration(e.cfg.heartbeat(), rng)):
		}
		ctx, cancel := context.WithTimeout(e.pollCtx, e.cfg.heartbeat())
		e.mesh.Tick(ctx)
		cancel()
	}
}

// EdgeStats is a snapshot of the edge's counters.
type EdgeStats struct {
	Requests       uint64
	Hits           uint64
	Misses         uint64
	StaleServes    uint64
	Failovers      uint64
	UpstreamErrors uint64
	Errors         uint64
	InvalApplied   uint64
	InvalResets    uint64
	PollErrors     uint64
	PushApplied    uint64
	PushGaps       uint64
	PushOverlaps   uint64
	PeerFills      uint64
	PeerFillFails  uint64
	PeerServes     uint64
	SnapshotSaves  uint64
	SnapshotErrors uint64
	SnapshotLoaded int64
	LastSeq        uint64
	CacheEntries   int
	CacheBytes     int64

	// Origin HA view: the highest origin epoch the edge has observed,
	// how many epoch advances it adopted (each one is an origin
	// failover it lived through), how many stale-epoch feeds it
	// refused, and the retry-budget pressure on its pull paths.
	OriginEpoch          uint64
	OriginFailovers      uint64
	EpochFenced          uint64
	RetryBudgetExhausted uint64
	RetryBudgetTokens    float64

	// Membership view: peer counts per state and the current ring
	// size (self included). RingSize shrinks when a peer is declared
	// dead and recovers with it.
	PeersAlive   int
	PeersSuspect int
	PeersDead    int
	RingSize     int
}

// Stats snapshots the edge counters — the same atomics Register
// exports, for tests and experiment harnesses.
func (e *Edge) Stats() EdgeStats {
	s := EdgeStats{
		Requests:       e.requests.Load(),
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		StaleServes:    e.staleServes.Load(),
		Failovers:      e.failovers.Load(),
		UpstreamErrors: e.upstreamErrors.Load(),
		Errors:         e.errors.Load(),
		InvalApplied:   e.invalApplied.Load(),
		InvalResets:    e.invalResets.Load(),
		PollErrors:     e.pollErrors.Load(),
		PushApplied:    e.pushApplied.Load(),
		PushGaps:       e.pushGaps.Load(),
		PushOverlaps:   e.pushOverlaps.Load(),
		PeerFills:      e.peerFills.Load(),
		PeerFillFails:  e.peerFillFails.Load(),
		PeerServes:     e.peerServes.Load(),
		SnapshotSaves:  e.snapSaves.Load(),
		SnapshotErrors: e.snapErrors.Load(),
		SnapshotLoaded: e.snapRestored.Load(),
		LastSeq:        e.lastSeq.Load(),
		CacheEntries:   e.cache.Len(),
		CacheBytes:     e.cache.Bytes(),
		RingSize:       e.ring.Len(),

		OriginEpoch:          e.originEpoch.Load(),
		OriginFailovers:      e.originFailover.Load(),
		EpochFenced:          e.epochFenced.Load(),
		RetryBudgetExhausted: e.budget.Exhausted(),
		RetryBudgetTokens:    e.budget.Tokens(),
	}
	if e.mesh != nil {
		s.PeersAlive, s.PeersSuspect, s.PeersDead = e.mesh.Counts()
	}
	return s
}

// Register exports the edge's counters and gauges onto reg.
func (e *Edge) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Adopt("sww_edge_requests_total", &e.requests)
	reg.Adopt("sww_edge_cache_hits_total", &e.hits)
	reg.Adopt("sww_edge_cache_misses_total", &e.misses)
	reg.Adopt("sww_edge_stale_serves_total", &e.staleServes)
	reg.Adopt("sww_edge_ring_failover_total", &e.failovers)
	reg.Adopt("sww_edge_upstream_errors_total", &e.upstreamErrors)
	reg.Adopt("sww_edge_errors_total", &e.errors)
	reg.Adopt("sww_edge_invalidations_applied_total", &e.invalApplied)
	reg.Adopt("sww_edge_invalidation_resets_total", &e.invalResets)
	reg.Adopt("sww_edge_poll_errors_total", &e.pollErrors)
	reg.Adopt("sww_edge_push_applied_total", &e.pushApplied)
	reg.Adopt("sww_edge_push_gap_total", &e.pushGaps)
	reg.Adopt("sww_edge_push_overlap_total", &e.pushOverlaps)
	reg.Adopt("sww_edge_peer_fill_total", &e.peerFills)
	reg.Adopt("sww_edge_peer_fill_misses_total", &e.peerFillFails)
	reg.Adopt("sww_edge_peer_serves_total", &e.peerServes)
	reg.Adopt("sww_edge_snapshot_saves_total", &e.snapSaves)
	reg.Adopt("sww_edge_snapshot_errors_total", &e.snapErrors)
	reg.Adopt("sww_edge_failovers_total", &e.originFailover)
	reg.Adopt("sww_edge_epoch_fenced_total", &e.epochFenced)
	reg.GaugeFunc("sww_edge_origin_epoch", func() float64 { return float64(e.originEpoch.Load()) })
	e.budget.Register(reg, "sww_edge")
	reg.GaugeFunc("sww_edge_invalidation_seq", func() float64 { return float64(e.lastSeq.Load()) })
	reg.GaugeFunc("sww_edge_cache_bytes", func() float64 { return float64(e.cache.Bytes()) })
	reg.GaugeFunc("sww_edge_cache_entries", func() float64 { return float64(e.cache.Len()) })
	reg.GaugeFunc("sww_edge_snapshot_restored_entries", func() float64 { return float64(e.snapRestored.Load()) })
	reg.GaugeFunc("sww_edge_ring_size", func() float64 { return float64(e.ring.Len()) })
	if e.mesh != nil {
		e.mesh.Register(reg)
	}
	e.upstream.Endpoints().Register(reg)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/http3"
	"sww/internal/overload"
	"sww/internal/telemetry"
)

// ServePolicy decides how the server answers a capable client (§5.1:
// "A server can choose to serve traditional content even if the
// client supports generative ability, for example to provide higher
// performance or based on the availability of renewable energy.").
type ServePolicy int

const (
	// PolicyGenerative serves prompts whenever the client can
	// generate (the SWW default).
	PolicyGenerative ServePolicy = iota
	// PolicyTraditional always serves fully rendered content.
	PolicyTraditional
)

// Mode names appear in the x-sww-mode response header so clients and
// experiments can verify the negotiated path.
const (
	ModeHeader      = "x-sww-mode"
	ModeGenerative  = "generative"
	ModeTraditional = "traditional"
)

// Shed-ladder observability headers. ShedHeader carries the rung that
// produced a degraded-under-load answer ("policy-flip", "admission",
// "queue-timeout", "breaker-open"); RetryAfterHeader is the standard
// Retry-After on 503 replies, in integer seconds.
const (
	ShedHeader       = "x-sww-shed"
	RetryAfterHeader = "retry-after"
	shedPolicyFlip   = "policy-flip"
)

// Edge-tier headers. EdgeGenHeader is a *request* header carrying the
// terminal client's negotiated SETTINGS_GEN_ABILITY as a decimal
// uint32: an edge terminates h2 from its own clients and re-requests
// on a long-lived upstream connection whose handshake ability cannot
// change per request, so it forwards the ability explicitly and the
// origin resolves as if that client had connected directly. (Honoring
// it unconditionally grants nothing a client could not already claim
// in its own SETTINGS.) The response headers are the edge tier's
// observability surface: which edge served, whether its cache hit,
// and — during an origin outage — how stale the served entry is.
const (
	EdgeGenHeader   = "x-sww-peer-gen"
	EdgeHeader      = "x-sww-edge"      // responding edge's name
	EdgeCacheHeader = "x-sww-cache"     // hit | miss | stale
	EdgeStaleHeader = "x-sww-stale-age" // integer seconds of staleness
)

// A Server is the §5.1 generative server: it negotiates generative
// ability through SETTINGS_GEN_ABILITY and serves each page in prompt
// form or traditional form accordingly. Server-side generation — the
// dominant server resource — runs behind an overload.Guard: a bounded
// worker pool, token-bucket admission, a circuit breaker, and
// singleflight coalescing, with generated results held in a
// byte-capped LRU. Under pressure the server walks an explicit
// load-shed ladder instead of melting down:
//
//  1. capable clients keep receiving prompts (they cost the server
//     almost nothing);
//  2. traditional requests are served from the generated-content
//     cache or stored originals;
//  3. capable clients whose page stores pre-rendered originals are
//     switched to traditional content (the §5.1 policy flip),
//     removing the risk that their own generation failure bounces
//     back as a server-side generation right when capacity is gone;
//  4. requests that genuinely need a generation the server cannot
//     afford get 503 with Retry-After, which ResilientClient honours
//     as a retryable, paced signal.
type Server struct {
	// Policy selects the answer for capable clients.
	Policy ServePolicy

	// ServerDevice runs server-side generation for non-capable
	// clients (§6.2: "the server uses the prompt to generate the
	// content before sending it"). The paper's edge server is the
	// workstation.
	serverProc *PageProcessor

	mu     sync.RWMutex
	pages  map[string]*Page
	assets map[string]Asset // the pages' unique assets and originals

	// guard is the overload-protection machinery; its ByteLRU holds
	// the server-side generated traditional forms (the storage/
	// transmission trade-off of §2.2 applies per unique object, now
	// bounded in bytes).
	guard *overload.Guard

	// tel is the attached ops telemetry set (nil = telemetry off);
	// see EnableTelemetry in telemetry.go.
	tel *telemetry.Set

	// onUnpublish, when set, receives every path that stops being
	// servable — evicted generated pages plus their generated assets,
	// and removed pages plus all of theirs. The live CDN origin turns
	// these into invalidation protocol messages for its edges.
	onUnpublish func(paths []string)

	// control, when set, intercepts request paths with the given
	// prefix before SWW resolution — the seam the CDN origin uses to
	// serve its invalidation feed on the same listener as the site.
	controlPrefix  string
	controlHandler func(w *http2.ResponseWriter, r *http2.Request)

	h2 *http2.Server
}

// A servedTraditional is a page generated server-side, as the
// generated-content cache holds it; processTraditional writes it.
type servedTraditional struct {
	body       []byte     // the page's HTML, immutable, shared by every serve
	lenStr     string     // strconv of len(body), for content-length
	assetPaths []string   // the page's asset paths (compiledPage.assets): shared, read-only
	assets     []tradSlot // assets[k].asset is assetPaths[k]'s bytes
	report     ProcessReport
	bytes      int64 // body and asset bytes, the entry's LRU charge
}

// NewServer builds a generative server. imageModel/textModel
// configure the server-side generation pipeline used for
// non-generative clients; empty strings disable that path (such a
// server can still serve pages whose originals are stored).
func NewServer(imageModel, textModel string) (*Server, error) {
	s := &Server{
		pages:  map[string]*Page{},
		assets: map[string]Asset{},
	}
	s.installGuard(overload.NewGuard(overload.Config{}))
	if imageModel != "" || textModel != "" {
		proc, err := NewPageProcessor(device.Workstation, imageModel, textModel)
		if err != nil {
			return nil, err
		}
		s.serverProc = proc
	}
	cfg := http2.Config{GenAbility: http2.GenFull | http2.GenUpscaleOnly}
	// §7 model negotiation: advertise the models this site's prompts
	// are tuned for, so capable clients can align.
	if s.serverProc != nil && s.serverProc.Pipeline != nil {
		if m := s.serverProc.Pipeline.ImageModel(); m != nil {
			cfg.ImageModelID = genai.ModelID(m.Name())
		}
		if m := s.serverProc.Pipeline.TextModel(); m != nil {
			cfg.TextModelID = genai.ModelID(m.Name())
		}
	}
	cfg.OnStreamRefused = s.countRefusedStream
	cfg.OnAbuse = s.countAbuse
	s.h2 = &http2.Server{
		Handler: h2Handler{s},
		Config:  cfg,
	}
	return s, nil
}

// SetOverload replaces the server's overload protection with one
// built from cfg. Call before serving traffic; in-flight generations
// finish under the old guard, and the generated-content cache starts
// empty.
func (s *Server) SetOverload(cfg overload.Config) {
	s.installGuard(overload.NewGuard(cfg))
}

// installGuard wires a guard's cache eviction to the unpublish hook: a
// generated page's assets are served from its entry (see resolve), so
// when the page falls out of the LRU it and they stop being servable
// together, and the hook hears of all of them.
func (s *Server) installGuard(g *overload.Guard) {
	g.Cache().SetOnEvict(func(key string, value any, _ int64) {
		s.mu.RLock()
		unpub := s.onUnpublish
		s.mu.RUnlock()
		g.Counters().CacheEvictions.Add(1)
		if unpub != nil {
			unpub(append([]string{key}, value.(*servedTraditional).assetPaths...))
		}
	})
	s.mu.Lock()
	s.guard = g
	s.mu.Unlock()
}

// SetOnUnpublish installs the unpublish hook: fn receives every path
// that stops being servable (evicted or removed pages and their
// assets). Call before serving traffic. This is the origin half of
// the edge invalidation protocol.
func (s *Server) SetOnUnpublish(fn func(paths []string)) {
	s.mu.Lock()
	s.onUnpublish = fn
	s.mu.Unlock()
}

// SetControl intercepts requests whose path starts with prefix and
// hands them to h instead of SWW resolution (HTTP/2 only). The CDN
// origin mounts its invalidation feed here so edges and site traffic
// share one listener. h always runs on a goroutine of its own and may
// block.
func (s *Server) SetControl(prefix string, h func(w *http2.ResponseWriter, r *http2.Request)) {
	s.mu.Lock()
	s.controlPrefix, s.controlHandler = prefix, h
	s.mu.Unlock()
}

// RemovePage unpublishes a page: it stops being servable, its unique
// and original assets leave the asset map, any cached generated form
// is dropped and its generated assets with it, and the unpublish hook
// hears of every one of those paths so edges are told.
func (s *Server) RemovePage(path string) {
	s.mu.Lock()
	p, ok := s.pages[path]
	var gone []string
	if ok {
		delete(s.pages, path)
		gone = append(gone, path)
		for _, a := range slices.Concat(p.Unique, p.Originals) {
			delete(s.assets, a.Path)
			gone = append(gone, a.Path)
		}
	}
	unpub := s.onUnpublish
	s.mu.Unlock()
	if !ok {
		return
	}
	cache := s.Overload().Cache()
	if v, ok := cache.Peek(path); ok {
		gone = append(gone, v.(*servedTraditional).assetPaths...)
	}
	cache.Remove(path) // fires no eviction hook
	if unpub != nil {
		unpub(gone)
	}
}

// ArtifactCache returns the generation pipeline's content-addressed
// artifact cache (nil for servers without a generation pipeline or
// with caching disabled).
func (s *Server) ArtifactCache() *genai.ArtifactCache {
	if s.serverProc == nil || s.serverProc.Pipeline == nil {
		return nil
	}
	return s.serverProc.Pipeline.Cache
}

// ArtifactCacheStats snapshots the artifact cache's hit/miss/byte
// counters (zero when no cache is attached).
func (s *Server) ArtifactCacheStats() genai.ArtifactCacheStats {
	c := s.ArtifactCache()
	if c == nil {
		return genai.ArtifactCacheStats{}
	}
	return c.Stats()
}

// SetArtifactCacheBytes replaces the generation pipeline's artifact
// cache with a fresh one capped at maxBytes; maxBytes <= 0 disables
// artifact caching entirely.
func (s *Server) SetArtifactCacheBytes(maxBytes int64) {
	if s.serverProc == nil || s.serverProc.Pipeline == nil {
		return
	}
	if maxBytes <= 0 {
		s.serverProc.Pipeline.Cache = nil
		return
	}
	s.serverProc.Pipeline.Cache = genai.NewArtifactCache(maxBytes)
}

// Overload returns the active overload guard (for tests, experiments
// and metrics scraping).
func (s *Server) Overload() *overload.Guard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.guard
}

// OverloadStats snapshots the overload counters — the observability
// surface for the shed ladder.
func (s *Server) OverloadStats() overload.Stats {
	return s.Overload().Counters().Snapshot()
}

func (s *Server) countRefusedStream() {
	s.Overload().Counters().StreamsRefused.Add(1)
	if set := s.Telemetry(); set != nil {
		set.Registry.Counter(telemetry.WithLabel("sww_requests_total", "outcome", OutcomeRefused)).Inc()
		set.Eventf("refused-stream", "stream refused at concurrency limit")
	}
}

// countAbuse folds http2 abuse-ledger escalations into the overload
// counters, making attack shedding visible on the same surface as the
// load-shed ladder.
func (s *Server) countAbuse(kind http2.AbuseKind, act http2.AbuseAction) {
	c := s.Overload().Counters()
	c.AbuseEvents.Add(1)
	switch act {
	case http2.AbuseCalm:
		c.AbuseCalmed.Add(1)
	case http2.AbuseKill:
		c.AbuseGoAways.Add(1)
	}
	s.Telemetry().Eventf("abuse", "%s escalated to %s", kind, act)
}

// SetAbusePolicy replaces the abuse policy on the underlying HTTP/2
// config. Call before serving traffic.
func (s *Server) SetAbusePolicy(p *http2.AbusePolicy) {
	s.h2.Config.AbusePolicy = p
}

// AddPage registers a page and its assets.
func (s *Server) AddPage(p *Page) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages[p.Path] = p
	for _, a := range slices.Concat(p.Unique, p.Originals) {
		s.assets[a.Path] = a
	}
}

// Page returns a registered page.
func (s *Server) Page(path string) (*Page, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[path]
	return p, ok
}

// StorageBytes reports the server's storage footprint in SWW form
// (prompt pages + unique assets only) and in traditional form
// (pages rendered plus all original media) — the §2.1 storage
// benefit.
func (s *Server) StorageBytes() (sww, traditional int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.pages {
		sww += int64(p.SWWWireBytes())
		for _, a := range p.Unique {
			sww += int64(len(a.Data))
			traditional += int64(len(a.Data))
		}
		if body, err := p.originalsBody(); err == nil {
			traditional += int64(len(body))
		} else {
			traditional += int64(p.SWWWireBytes())
		}
		for _, a := range p.Originals {
			traditional += int64(len(a.Data))
		}
	}
	return sww, traditional
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error { return s.h2.Serve(l) }

// ServeConn serves one connection, blocking until it dies.
func (s *Server) ServeConn(c net.Conn) error { return s.h2.ServeConn(c) }

// StartConn serves one connection in the background; it never blocks.
func (s *Server) StartConn(c net.Conn) *http2.ServerConn { return s.h2.StartConn(c) }

// SetAbility replaces the generative ability the server advertises,
// GenFull|GenUpscaleOnly by default, over HTTP/2 and HTTP/3 alike.
// Call before serving traffic.
func (s *Server) SetAbility(g http2.GenAbility) {
	s.h2.Config.GenAbility = g
}

// payload is the protocol-agnostic form of one response; the HTTP/2
// and HTTP/3 adapters serialize it with their own header encodings.
//
// body is never written to once a payload holds it: every producer
// fills it with either cached bytes (asset data, memoized prompt pages,
// the generated-content cache) or a fresh buffer. HTTP/3 relies on
// that — its response keeps the slice until the handler returns;
// HTTP/2 copies the body into the connection's write buffer before
// Respond returns, once.
type payload struct {
	status      int
	contentType string
	mode        string // ModeGenerative / ModeTraditional, "" for assets
	shed        string // shed-ladder rung, "" off the ladder
	outcome     string // Outcome* label for telemetry and traces
	retryAfter  int    // seconds, 503 only
	body        []byte
	bodyLen     string // memoized strconv of len(body); "" → format on demand
}

// resolve is the protocol-agnostic request entry point: it implements
// the SWW serving decision for a peer with the given negotiated
// ability, regardless of whether the bytes travel over HTTP/2 or
// HTTP/3. A generated asset is servable exactly while its page's entry
// is resident in the generated-content cache (see generatedAsset).
//
// With inline set it runs on a connection's read loop and may only
// look things up: it answers what is already in memory — an asset, a
// memoized prompt page, a generated page or its asset in the LRU, 404,
// 405 — and declines (false) what would render, generate or wait: a
// page served from stored originals, the policy flip, a cache miss. A
// declined resolve has counted nothing; the request is resolved again,
// in full, on a goroutine of its own.
func (s *Server) resolve(ctx context.Context, method, path string, peerGen http2.GenAbility, inline bool) (payload, bool) {
	if method != "GET" {
		return payload{status: 405, contentType: "text/plain", outcome: OutcomeError, body: []byte("method not allowed")}, true
	}
	tr := traceFrom(ctx)
	lookup := tr.StartSpan("lookup")
	s.mu.RLock()
	asset, isAsset := s.assets[path]
	page, isPage := s.pages[path]
	s.mu.RUnlock()
	if !isAsset && !isPage {
		asset, isAsset = s.generatedAsset(path)
	}
	lookup.End()

	switch {
	case isAsset:
		ct := asset.ContentType
		if ct == "" {
			ct = "application/octet-stream"
		}
		return payload{status: 200, contentType: ct, outcome: OutcomeAsset, body: asset.Data}, true

	case isPage:
		generative := s.Policy == PolicyGenerative &&
			peerGen.Supports(http2.GenBasic) &&
			peerGen.Supports(page.Requirements())
		if generative {
			// Rung 3 of the shed ladder: under saturation, a capable
			// client whose page stores pre-rendered originals is
			// switched to traditional content (§5.1's policy flip).
			// Rationale: prompts are cheap now, but a capable client
			// that later fails its own generation re-fetches with
			// GenNone — a server-side generation landing exactly when
			// capacity is gone. Pre-rendered bytes carry no such risk
			// and cost no generation.
			if len(page.Originals) > 0 && s.Overload().Level() >= overload.LevelSaturated {
				if inline {
					return payload{}, false
				}
				if body, err := page.originalsBody(); err == nil {
					s.Overload().Counters().ShedPolicyFlip.Add(1)
					tr.Note("shed", "policy flip at "+s.Overload().Level().String())
					return payload{
						status:      200,
						contentType: "text/html; charset=utf-8",
						mode:        ModeTraditional,
						shed:        shedPolicyFlip,
						outcome:     OutcomePolicyFlip,
						body:        body,
					}, true
				}
			}
			// Rung 1: prompts as usual — the memoized render, served by
			// reference.
			return payload{
				status:      200,
				contentType: "text/html; charset=utf-8",
				mode:        ModeGenerative,
				outcome:     OutcomePrompt,
				body:        page.PromptBytes(),
				bodyLen:     page.PromptLen(),
			}, true
		}
		return s.resolveTraditional(ctx, page, inline)

	default:
		return payload{status: 404, contentType: "text/plain", outcome: OutcomeNotFound,
			body: []byte(fmt.Sprintf("no such path %q", path))}, true
	}
}

// generatedAsset is the generated asset at path from its page's cached
// entry, peeked: an image fetch does not move its page in the LRU.
func (s *Server) generatedAsset(path string) (Asset, bool) {
	v, ok := s.Overload().Cache().Peek(generatedPage(path))
	if !ok {
		return Asset{}, false
	}
	st := v.(*servedTraditional)
	if k := slices.Index(st.assetPaths, path); k >= 0 {
		return Asset{Path: path, ContentType: "image/png", Data: st.assets[k].asset}, true
	}
	return Asset{}, false
}

// resolveTraditional materializes fully rendered content: originals
// when the page stores them, the generated-content cache next, and
// admission-controlled server-side generation last. A shed generation
// becomes 503 + Retry-After (rung 4) — the bottom of the ladder,
// reached only when no cheaper form of the page exists.
func (s *Server) resolveTraditional(ctx context.Context, p *Page, inline bool) (payload, bool) {
	if len(p.Originals) > 0 {
		if inline {
			return payload{}, false
		}
		if body, err := p.originalsBody(); err == nil {
			return payload{
				status:      200,
				contentType: "text/html; charset=utf-8",
				mode:        ModeTraditional,
				outcome:     OutcomeTraditional,
				body:        body,
			}, true
		}
	}
	st, cached, err := s.generateTraditional(ctx, p, inline)
	if err != nil {
		if errors.Is(err, errNotCached) {
			return payload{}, false
		}
		var shed *overload.ShedError
		if errors.As(err, &shed) {
			s.Overload().Counters().Shed503.Add(1)
			secs := int(shed.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			s.Telemetry().Eventf("shed", "503 %s for %s, retry-after %ds", shed.Reason, p.Path, secs)
			return payload{
				status:      503,
				contentType: "text/plain",
				shed:        shed.Reason,
				outcome:     OutcomeShed,
				retryAfter:  secs,
				body:        []byte(fmt.Sprintf("server overloaded (%s); retry after %ds", shed.Reason, secs)),
			}, true
		}
		return payload{status: 500, contentType: "text/plain", outcome: OutcomeError,
			body: []byte(fmt.Sprintf("server-side generation failed: %v", err))}, true
	}
	outcome := OutcomeTraditional
	if cached {
		outcome = OutcomeCached
	}
	return payload{
		status:      200,
		contentType: "text/html; charset=utf-8",
		mode:        ModeTraditional,
		outcome:     outcome,
		body:        st.body,
		bodyLen:     st.lenStr,
	}, true
}

// A transportResponder serializes one resolved payload onto a
// specific transport: the status line, the shared header vocabulary
// (content-type, mode, shed rung, retry-after) in the transport's
// native field encoding, then the body. With try set it sends only if
// the transport takes the whole reply without waiting, and reports
// whether it did; without, it always reports true.
type transportResponder interface {
	respond(pl payload, try bool) bool
}

// serveRequest is the single serve core both transports flow through:
// telemetry begin, the SWW resolution ladder, transport-specific
// serialization, telemetry finish. Everything protocol-dependent
// lives behind the responder.
//
// inline is the same core as an attempt on a connection's read loop
// (see resolve): it reports false, having sent, counted and traced
// nothing, when the request needs more than a lookup or the transport
// cannot take the reply now. Its context is never waited on.
func (s *Server) serveRequest(ctx context.Context, proto, method, path string, peerGen http2.GenAbility, w transportResponder, inline bool) bool {
	ctx, tr, start := s.beginRequest(ctx, proto, path, peerGen, inline)
	pl, ok := s.resolve(ctx, method, path, peerGen, inline)
	if !ok {
		return false
	}
	sp := tr.StartSpan("serve")
	if !w.respond(pl, inline) {
		return false
	}
	sp.End()
	s.finishRequest(tr, pl, start, inline)
	return true
}

// EffectivePeerGen applies the edge relay override: an edge stamps
// its terminal client's ability on the request via EdgeGenHeader.
// Honoring the header unconditionally is safe: a direct client could
// claim any ability in SETTINGS anyway, so this grants nothing new.
// Every hop that keys on ability (origin, edge, peer-fill target)
// resolves the header through here, so they cannot disagree. The
// header loses the bits no ability defines: they mean nothing to any
// hop, and an edge keys its shard on the result, which must stay one
// of the 64 values up to http2.GenKnown.
func EffectivePeerGen(negotiated http2.GenAbility, edgeHdr string) http2.GenAbility {
	if edgeHdr != "" {
		if g, err := strconv.ParseUint(edgeHdr, 10, 32); err == nil {
			return http2.GenAbility(g) & http2.GenKnown
		}
	}
	return negotiated
}

// h2Responder serializes payloads as HTTP/2 responses. HTTP/2 carries
// an explicit content-length; the field list lives on the stack, and
// header block and body are built in the connection's write buffer.
type h2Responder struct{ w *http2.ResponseWriter }

func (r h2Responder) respond(pl payload, try bool) bool {
	cl := pl.bodyLen
	if cl == "" {
		cl = strconv.Itoa(len(pl.body))
	}
	var store [5]hpack.HeaderField
	fields := append(store[:0],
		hpack.HeaderField{Name: "content-type", Value: pl.contentType},
		hpack.HeaderField{Name: "content-length", Value: cl})
	if pl.mode != "" {
		fields = append(fields, hpack.HeaderField{Name: ModeHeader, Value: pl.mode})
	}
	if pl.shed != "" {
		fields = append(fields, hpack.HeaderField{Name: ShedHeader, Value: pl.shed})
	}
	if pl.retryAfter > 0 {
		fields = append(fields, hpack.HeaderField{Name: RetryAfterHeader, Value: strconv.Itoa(pl.retryAfter)})
	}
	if try {
		return r.w.TryRespond(pl.status, pl.body, fields...)
	}
	// A failed write means the client is gone; there is no one to tell.
	_ = r.w.Respond(pl.status, pl.body, fields...)
	return true
}

// h3Responder serializes payloads as HTTP/3 responses. The HTTP/3
// message framing carries the length implicitly, so no explicit
// content-length field is emitted.
type h3Responder struct{ w *http3.ResponseWriter }

func (r h3Responder) respond(pl payload, try bool) bool {
	if try {
		return false // HTTP/3 requests are never offered inline
	}
	var store [4]http3.Field
	fields := append(store[:0], http3.Field{Name: "content-type", Value: pl.contentType})
	if pl.mode != "" {
		fields = append(fields, http3.Field{Name: ModeHeader, Value: pl.mode})
	}
	if pl.shed != "" {
		fields = append(fields, http3.Field{Name: ShedHeader, Value: pl.shed})
	}
	if pl.retryAfter > 0 {
		fields = append(fields, http3.Field{Name: RetryAfterHeader, Value: strconv.Itoa(pl.retryAfter)})
	}
	r.w.WriteHeaders(pl.status, fields...)
	r.w.WriteRetained(pl.body)
	return true
}

// h2Handler is the Server as http2 sees it: every request on a
// goroutine of its own, and — first, for requests that arrived whole —
// an attempt on the connection's read loop.
type h2Handler struct{ s *Server }

func (h h2Handler) ServeSWW(w *http2.ResponseWriter, r *http2.Request) { h.s.serve(w, r, false) }

func (h h2Handler) TryServeSWW(w *http2.ResponseWriter, r *http2.Request) bool {
	return h.s.serve(w, r, true)
}

// serve adapts HTTP/2 to the shared core. The stream context makes
// resets effective: a canceled request stops waiting for (or holding)
// a generation worker; an inline attempt waits for nothing and builds
// none. The control-prefix intercept stays here — the CDN origin's
// invalidation feed is an h2-only wire protocol, and its handlers may
// block, so they are never tried inline.
func (s *Server) serve(w *http2.ResponseWriter, r *http2.Request, inline bool) bool {
	s.mu.RLock()
	ctlPrefix, ctl := s.controlPrefix, s.controlHandler
	s.mu.RUnlock()
	if ctl != nil && ctlPrefix != "" && strings.HasPrefix(r.Path, ctlPrefix) {
		if inline {
			return false
		}
		ctl(w, r)
		return true
	}
	peerGen := EffectivePeerGen(r.PeerGen, r.HeaderValue(EdgeGenHeader))
	ctx := context.Background()
	if !inline {
		ctx = r.Stream().Context()
	}
	return s.serveRequest(ctx, "h2", r.Method, r.Path, peerGen, h2Responder{w}, inline)
}

// serveH3 adapts HTTP/3 to the shared core.
func (s *Server) serveH3(w *http3.ResponseWriter, r *http3.Request) {
	peerGen := EffectivePeerGen(r.PeerGen, r.HeaderValue(EdgeGenHeader))
	s.serveRequest(context.Background(), "h3", r.Method, r.Path, peerGen, h3Responder{w}, false)
}

// StartConnH3 serves one connection over HTTP/3 in the background
// (§3.1: the same SWW semantics over the HTTP/3 mapping).
func (s *Server) StartConnH3(c net.Conn) *http3.ServerConn {
	cfg := http3.Config{
		GenAbility:   s.h2.Config.GenAbility,
		ImageModelID: s.h2.Config.ImageModelID,
		TextModelID:  s.h2.Config.TextModelID,
	}
	h3 := &http3.Server{Handler: http3.HandlerFunc(s.serveH3), Config: cfg}
	return h3.StartConn(c)
}

// cachedTraditional returns the generated form of a page from the
// byte-capped LRU, if still resident.
func (s *Server) cachedTraditional(path string) (*servedTraditional, bool) {
	if v, ok := s.Overload().Cache().Get(path); ok {
		return v.(*servedTraditional), true
	}
	return nil, false
}

// errNotCached is how an inline generateTraditional declines a page
// that would have to be generated.
var errNotCached = errors.New("core: page not in the generated-content cache")

// A cacheHit is the singleflight value for a generated page that the
// in-flight recheck found in the generated-content cache; a fresh
// pipeline run's is the *servedTraditional itself. Both are
// pointer-shaped, so neither allocates to become an interface.
type cacheHit struct{ st *servedTraditional }

// generateTraditional materializes a page server-side through the
// overload guard and caches the result, whose generated media resolve
// serves from the cache. Concurrent misses of the same cold page coalesce
// into a single generation (singleflight), so a dogpile costs one
// admission token and one worker, not N. cached reports whether the
// content came from the LRU instead of a pipeline run. An inline call
// stops at the LRU: errNotCached on a miss, and a hit left for
// finishRequest to count once the reply is out.
func (s *Server) generateTraditional(ctx context.Context, p *Page, inline bool) (st *servedTraditional, cached bool, err error) {
	g := s.Overload()
	tr := traceFrom(ctx)
	lookup := tr.StartSpan("cache")
	if st, ok := s.cachedTraditional(p.Path); ok {
		lookup.EndNote("hit")
		if !inline {
			g.Counters().CacheHits.Add(1)
		}
		return st, true, nil
	}
	lookup.EndNote("miss")
	if inline {
		return nil, false, errNotCached
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if s.serverProc == nil {
		return nil, false, fmt.Errorf("core: server has no generation pipeline and page %q has no originals", p.Path)
	}
	v, err, shared := g.Flight().Do(p.Path, func() (any, error) {
		// Re-check under the flight lock's shadow: a previous holder
		// may have populated the cache while this caller queued on Do.
		if st, ok := s.cachedTraditional(p.Path); ok {
			g.Counters().CacheHits.Add(1)
			return cacheHit{st}, nil
		}
		admit := tr.StartSpan("admission")
		admitStart := time.Now()
		release, err := g.AdmitGen(ctx)
		s.observeDuration("sww_admission_wait_seconds", time.Since(admitStart))
		if err != nil {
			admit.EndNote(err.Error())
			return nil, err
		}
		admit.End()
		ok := false
		defer func() { release(ok) }()
		// The requester may have vanished (stream reset) while this
		// request queued for a worker. Skip the pipeline run entirely:
		// this is what makes rapid reset cheap — a canceled request
		// costs a queue slot, not a generation. ok=true because the
		// backend saw no failure.
		if ctx.Err() != nil {
			ok = true
			return nil, ctx.Err()
		}
		g.Counters().GenRuns.Add(1)
		gen := tr.StartSpan("generate")
		genStart := time.Now()
		st, err := s.serverProc.processTraditional(ctx, p)
		s.observeDuration("sww_generation_duration_seconds", time.Since(genStart))
		if err != nil {
			gen.EndNote(err.Error())
			// A mid-page cancellation is the requester vanishing, not a
			// backend failure: don't feed the breaker or GenFailures.
			if ctx.Err() != nil {
				ok = true
				return nil, ctx.Err()
			}
			g.Counters().GenFailures.Add(1)
			return nil, err
		}
		gen.End()
		ok = true
		// Model real inference occupancy: hold the worker for the
		// configured fraction of the modelled generation time. A
		// canceled requester releases the worker early — the result
		// is already computed, so it is still cached for the next
		// fetch (coalesced waiters get it too).
		if hold := g.GenHold(st.report.SimGenTime); hold > 0 {
			select {
			case <-time.After(hold):
			case <-ctx.Done():
			}
		}
		g.Cache().Add(p.Path, st, st.bytes)
		return st, nil
	})
	if shared {
		g.Counters().Coalesced.Add(1)
		tr.Note("generate", "coalesced into in-flight generation")
	}
	if err != nil {
		return nil, false, err
	}
	if hit, ok := v.(cacheHit); ok {
		return hit.st, true, nil
	}
	return v.(*servedTraditional), false, nil
}

// ServerGenReport returns a copy of the server-side generation report
// for a page (nil if the page was never served traditionally or has
// since been evicted from the generated-content cache). Its Items are
// the cached entry's: read-only.
func (s *Server) ServerGenReport(path string) *ProcessReport {
	if v, ok := s.Overload().Cache().Peek(path); ok {
		r := v.(*servedTraditional).report
		return &r
	}
	return nil
}

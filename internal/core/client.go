package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/hpack"
	"sww/internal/html"
	"sww/internal/http2"
	"sww/internal/http3"
)

// fetchReply is one transport-agnostic response: status, the SWW
// headers the client logic reads, and the full body.
type fetchReply struct {
	status      int
	mode        string // x-sww-mode
	contentType string // content-type, for raw re-serving at an edge
	retryAfter  string // retry-after, 503 only
	stale       string // x-sww-stale-age, set by an edge serving stale
	body        []byte
}

// clientConn abstracts the transport beneath the generative client,
// so the same client logic runs over HTTP/2 and HTTP/3 (§3.1).
type clientConn interface {
	Negotiated() http2.GenAbility
	ServerModelIDs() (image, text uint32)
	// fetch GETs one path under ctx. extra request headers ride along
	// on HTTP/2 (the edge tier's peer-ability forwarding); the HTTP/3
	// adapter ignores them.
	fetch(ctx context.Context, path string, extra ...hpack.HeaderField) (fetchReply, error)
	Close() error
}

// h2conn adapts http2.ClientConn.
type h2conn struct{ cc *http2.ClientConn }

func (c h2conn) Negotiated() http2.GenAbility     { return c.cc.Negotiated() }
func (c h2conn) ServerModelIDs() (uint32, uint32) { return c.cc.ServerModelIDs() }
func (c h2conn) Close() error                     { return c.cc.Close() }
func (c h2conn) fetch(ctx context.Context, path string, extra ...hpack.HeaderField) (fetchReply, error) {
	resp, err := c.cc.GetContext(ctx, path, extra...)
	if err != nil {
		return fetchReply{}, err
	}
	// resp lives in its stream, which the body's end hands to the
	// connection's next request: its values are read first.
	reply := fetchReply{
		status:      resp.Status,
		mode:        resp.HeaderValue(ModeHeader),
		contentType: resp.HeaderValue("content-type"),
		retryAfter:  resp.HeaderValue(RetryAfterHeader),
		stale:       resp.HeaderValue(EdgeStaleHeader),
	}
	if reply.body, err = http2.ReadAllBodyContext(ctx, resp); err != nil {
		return fetchReply{}, err
	}
	return reply, nil
}

// h3conn adapts http3.ClientConn.
type h3conn struct{ cc *http3.ClientConn }

func (c h3conn) Negotiated() http2.GenAbility     { return c.cc.Negotiated() }
func (c h3conn) ServerModelIDs() (uint32, uint32) { return c.cc.ServerModelIDs() }
func (c h3conn) Close() error                     { return c.cc.Close() }
func (c h3conn) fetch(ctx context.Context, path string, _ ...hpack.HeaderField) (fetchReply, error) {
	resp, err := c.cc.GetContext(ctx, path)
	if err != nil {
		return fetchReply{}, err
	}
	return fetchReply{
		status:      resp.Status,
		mode:        resp.HeaderValue(ModeHeader),
		contentType: resp.HeaderValue("content-type"),
		retryAfter:  resp.HeaderValue(RetryAfterHeader),
		stale:       resp.HeaderValue(EdgeStaleHeader),
		body:        resp.Body,
	}, nil
}

// A Client is the §5.2 generative client: it connects, advertises its
// generation ability, requests pages, generates placeholder content
// locally, and "renders" the result (this prototype renders to a
// final HTML string plus an asset map instead of a GUI).
type Client struct {
	conn clientConn
	dev  device.Profile
	proc *PageProcessor // nil for a traditional client
}

// NewClient performs connection setup over nc. A nil processor makes
// a traditional (non-generative) client; otherwise the client
// advertises full generation plus upscaling ability.
func NewClient(nc net.Conn, dev device.Profile, proc *PageProcessor) (*Client, error) {
	return NewClientWithAbility(nc, dev, proc, clientAbility(proc))
}

// clientAbility is what a client with processor proc advertises.
func clientAbility(proc *PageProcessor) http2.GenAbility {
	if proc == nil {
		return http2.GenNone
	}
	return http2.GenFull | http2.GenUpscaleOnly
}

// NewClientWithAbility is NewClient with an explicit advertised
// ability, for partial clients such as §3's upscale-only devices
// (pass GenBasic|GenUpscaleOnly with a processor that has no
// generation models).
//
// Model negotiation (§7): when the server advertises models the client
// also has locally, the client adopts them — server prompts are tuned
// for those models.
func NewClientWithAbility(nc net.Conn, dev device.Profile, proc *PageProcessor, ability http2.GenAbility) (*Client, error) {
	return newClient(nc, dev, proc, http2.Config{GenAbility: ability})
}

// newClient is the h2 client over nc with connection config cfg.
func newClient(nc net.Conn, dev device.Profile, proc *PageProcessor, cfg http2.Config) (*Client, error) {
	cc, err := http2.NewClientConn(nc, cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: h2conn{cc}, dev: dev, proc: proc}
	c.adoptServerModels()
	return c, nil
}

// NewClientH3 is NewClient over the HTTP/3 mapping (§3.1): the same
// SWW client logic with the negotiation carried on the QUIC control
// stream's SETTINGS.
func NewClientH3(nc net.Conn, dev device.Profile, proc *PageProcessor) (*Client, error) {
	cc, err := http3.NewClientConn(nc, http3.Config{GenAbility: clientAbility(proc)})
	if err != nil {
		return nil, err
	}
	c := &Client{conn: h3conn{cc}, dev: dev, proc: proc}
	c.adoptServerModels()
	return c, nil
}

// adoptServerModels swaps the local pipeline to the server's
// advertised models when they are locally available and can run on
// this device class.
func (c *Client) adoptServerModels() {
	if c.proc == nil || c.proc.Pipeline == nil {
		return
	}
	imgID, txtID := c.conn.ServerModelIDs()
	cur := c.proc.Pipeline
	imgName, txtName := "", ""
	if m := cur.ImageModel(); m != nil {
		imgName = m.Name()
	}
	if m := cur.TextModel(); m != nil {
		txtName = m.Name()
	}
	changed := false
	if imgID != 0 {
		if m, ok := genai.ImageModelByID(imgID); ok && m.Name() != imgName && !m.ServerOnly() {
			imgName = m.Name()
			changed = true
		}
	}
	if txtID != 0 {
		if m, ok := genai.TextModelByID(txtID); ok && m.Name() != txtName {
			txtName = m.Name()
			changed = true
		}
	}
	if !changed {
		return
	}
	if pl, err := genai.NewPipeline(c.dev.Class, imgName, txtName); err == nil {
		// The artifact cache keys on model name, so it survives the
		// model swap intact.
		pl.Cache = cur.Cache
		c.proc.Pipeline = pl
	}
}

// Models reports the pipeline models the client currently uses
// (empty strings for missing modalities).
func (c *Client) Models() (image, text string) {
	if c.proc == nil || c.proc.Pipeline == nil {
		return "", ""
	}
	if m := c.proc.Pipeline.ImageModel(); m != nil {
		image = m.Name()
	}
	if m := c.proc.Pipeline.TextModel(); m != nil {
		text = m.Name()
	}
	return image, text
}

// Negotiated exposes the connection's shared ability.
func (c *Client) Negotiated() http2.GenAbility { return c.conn.Negotiated() }

// Close shuts the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// A FetchResult is one fully rendered page with its accounting.
type FetchResult struct {
	// Mode is what the server chose: generative or traditional.
	Mode string

	// HTML is the final rendered document (prompts replaced).
	HTML string

	// Assets maps served or generated asset paths to their bytes.
	Assets map[string][]byte

	// WireBytes is everything that crossed the network: HTML plus all
	// fetched assets. The SWW savings show up here.
	WireBytes int

	// Report is the client-side generation accounting (nil in
	// traditional mode).
	Report *ProcessReport

	// TransmitEnergyWh is the network-side energy for WireBytes at
	// the paper's 0.038 Wh/MB.
	TransmitEnergyWh float64

	// TransmitTime is the link time for WireBytes on this device.
	TransmitTime time.Duration

	// Degraded marks a page that was re-fetched in traditional mode
	// after local generation failed or overran its budget — the
	// paper's fallback ladder exercised at runtime, not just at
	// negotiation time.
	Degraded bool

	// DegradeReason records why the degradation happened ("" when
	// Degraded is false).
	DegradeReason string

	// Attempts counts connection-level tries it took to produce this
	// result (1 for a clean first fetch; filled by ResilientClient).
	Attempts int
}

// A GenerationError marks a fetch that failed in the local
// generation stage — the transport delivered the prompt page, but
// synthesizing its content failed or overran the generation budget.
// It is the trigger for the degrade-to-traditional ladder: the same
// page is still servable with SETTINGS_GEN_ABILITY off.
type GenerationError struct {
	Path string
	Err  error
}

func (e *GenerationError) Error() string {
	return fmt.Sprintf("core: generating page %s: %v", e.Path, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *GenerationError) Unwrap() error { return e.Err }

// A ServerBusyError marks a 503 reply from the server's load-shed
// ladder: the connection is healthy and the request was well-formed,
// the server just cannot afford the generation right now. It is
// retryable on the SAME connection after RetryAfter — ResilientClient
// waits it out instead of dropping the transport (see resilient.go).
type ServerBusyError struct {
	Path string
	// RetryAfter is the server's requested pause (zero if the header
	// was absent or unparsable).
	RetryAfter time.Duration
}

func (e *ServerBusyError) Error() string {
	return fmt.Sprintf("core: GET %s: 503 server busy (retry after %v)", e.Path, e.RetryAfter)
}

// parseRetryAfter reads Retry-After in either RFC 9110 §10.2.3 form:
// delta-seconds ("120") or an HTTP-date ("Fri, 07 Aug 2026 10:00:00
// GMT", plus the two obsolete date formats http.ParseTime accepts).
// It reports ok=false for an absent, negative, or unparseable header
// so callers fall back to their own backoff instead of treating
// garbage as "retry immediately". A date in the past parses to zero:
// the server named a moment that has already arrived.
func parseRetryAfter(v string, now time.Time) (d time.Duration, ok bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Fetch requests path, resolves the page per the negotiated mode, and
// fetches every referenced same-site asset.
func (c *Client) Fetch(path string) (*FetchResult, error) {
	return c.FetchContext(context.Background(), path)
}

// FetchContext is Fetch governed by ctx: the page request, every
// asset request, and any upscale-source fetches inherit its deadline,
// so a wedged transport surfaces as a context error instead of a
// hang. Failures in the generation stage are returned as
// *GenerationError; transport failures keep their transport typing
// (see http2.Retryable).
func (c *Client) FetchContext(ctx context.Context, path string) (*FetchResult, error) {
	reply, err := c.conn.fetch(ctx, path)
	if err != nil {
		return nil, err
	}
	if reply.status == 503 {
		ra, _ := parseRetryAfter(reply.retryAfter, time.Now())
		return nil, &ServerBusyError{Path: path, RetryAfter: ra}
	}
	if reply.status != 200 {
		return nil, fmt.Errorf("core: GET %s: status %d: %s", path, reply.status, reply.body)
	}
	res := &FetchResult{
		Mode:      reply.mode,
		Assets:    map[string][]byte{},
		WireBytes: len(reply.body),
		Attempts:  1,
	}
	doc := html.Parse(string(reply.body))

	if res.Mode == ModeGenerative {
		if c.proc == nil {
			return nil, fmt.Errorf("core: server sent generative content to a non-generative client")
		}
		// Upscale placeholders pull their low-resolution sources over
		// this connection; their bytes count toward the wire total.
		// Transport failures inside Process are remembered so they are
		// not misclassified as generation failures below. The fetcher
		// is called from the processor's worker pool, so its shared
		// accounting is mutex-guarded (the h2 connection itself is
		// stream-concurrent already).
		var fetchMu sync.Mutex
		var transportErr error
		c.proc.FetchAsset = func(srcPath string) ([]byte, error) {
			data, err := c.getAsset(ctx, srcPath)
			fetchMu.Lock()
			defer fetchMu.Unlock()
			if err != nil {
				transportErr = err
				return nil, err
			}
			res.WireBytes += len(data)
			return data, nil
		}
		assets, report, err := c.proc.ProcessContext(context.Background(), path, doc)
		c.proc.FetchAsset = nil
		if err != nil {
			if transportErr != nil {
				return nil, err // the transport died; keep its typing
			}
			return nil, &GenerationError{Path: path, Err: err}
		}
		for p, data := range assets {
			res.Assets[p] = data
		}
		res.Report = report
	}

	// Fetch remaining referenced assets (unique content in both
	// modes; originals/server-generated media in traditional mode).
	for _, src := range AssetPaths(doc) {
		if _, generatedLocally := res.Assets[src]; generatedLocally {
			continue
		}
		adata, err := c.getAsset(ctx, src)
		if err != nil {
			return nil, err
		}
		res.Assets[src] = adata
		res.WireBytes += len(adata)
	}

	res.HTML = html.RenderString(doc)
	res.TransmitEnergyWh = device.TransmitEnergyWh(int64(res.WireBytes))
	res.TransmitTime = c.dev.TransmitTime(int64(res.WireBytes))
	return res, nil
}

// A RawReply is one response in transit form: exactly what the server
// sent, unparsed and unprocessed. It is the currency of the edge
// tier — an edge fetches pages and assets from the origin as raw
// replies and re-serves the same bytes to its own clients, so prompt
// pages cross the backbone once and stay prompts.
type RawReply struct {
	Status      int
	Mode        string // x-sww-mode, "" for assets
	ContentType string
	Body        []byte
	// StaleAge is the x-sww-stale-age header parsed as seconds (zero
	// when the reply was fresh) — set when an upstream edge served
	// this from a stale cache entry during an origin outage.
	StaleAge time.Duration
}

// FetchRaw GETs path and returns the raw reply without any SWW page
// processing: no prompt resolution, no asset walking, no generation.
// A 503 surfaces as *ServerBusyError so the retry ladder can honour
// Retry-After; every other status is returned as-is for the caller to
// judge. extra request headers ride along (HTTP/2 only).
func (c *Client) FetchRaw(ctx context.Context, path string, extra ...hpack.HeaderField) (*RawReply, error) {
	raw, err := c.fetchRaw(ctx, path, extra...)
	if err != nil {
		return nil, err
	}
	return &raw, nil
}

// fetchRaw is FetchRaw returning the reply by value, for callers that
// keep it inside something of their own (ResilientClient.FetchRawContext).
func (c *Client) fetchRaw(ctx context.Context, path string, extra ...hpack.HeaderField) (RawReply, error) {
	reply, err := c.conn.fetch(ctx, path, extra...)
	if err != nil {
		return RawReply{}, err
	}
	if reply.status == 503 {
		ra, _ := parseRetryAfter(reply.retryAfter, time.Now())
		return RawReply{}, &ServerBusyError{Path: path, RetryAfter: ra}
	}
	raw := RawReply{
		Status:      reply.status,
		Mode:        reply.mode,
		ContentType: reply.contentType,
		Body:        reply.body,
	}
	if reply.stale != "" {
		if secs, err := strconv.Atoi(reply.stale); err == nil && secs >= 0 {
			raw.StaleAge = time.Duration(secs) * time.Second
		}
	}
	return raw, nil
}

// getAsset GETs one same-site asset over the connection.
func (c *Client) getAsset(ctx context.Context, path string) ([]byte, error) {
	reply, err := c.conn.fetch(ctx, path)
	if err != nil {
		return nil, fmt.Errorf("core: fetching asset %s: %w", path, err)
	}
	if reply.status == 503 {
		ra, _ := parseRetryAfter(reply.retryAfter, time.Now())
		return nil, &ServerBusyError{Path: path, RetryAfter: ra}
	}
	if reply.status != 200 {
		return nil, fmt.Errorf("core: asset %s: status %d", path, reply.status)
	}
	return reply.body, nil
}

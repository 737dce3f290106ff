package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"image/png"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/html"
)

// A PageProcessor is §4.1's client-side machinery: "The HTML Parser
// extracts the metadata and passes the information to a media
// generator object, alongside a preloaded image generation pipeline
// ... Once content is generated, the divisions in the HTML are
// replaced with accurate paths to images, or the actual body of text
// for text expansion tasks."
type PageProcessor struct {
	Pipeline *genai.Pipeline
	Device   device.Profile

	// FetchAsset resolves a same-site asset path, used by upscale
	// placeholders to obtain their low-resolution source. The Client
	// wires this to the connection; offline processors may leave it
	// nil (upscale content then fails with a clear error).
	FetchAsset func(path string) ([]byte, error)

	// Upscaler performs §2.2 content upscaling. Nil means the default
	// model.
	Upscaler *imagegen.Upscaler

	// SimBudget bounds the page's modelled generation time. When the
	// accumulated SimGenTime of a Process pass exceeds it, Process
	// aborts with ErrGenDeadline — the signal for the degradation
	// ladder to re-fetch the page traditionally. Zero means unbounded.
	// The budget is simulated time, so enforcement is deterministic.
	SimBudget time.Duration

	// Workers bounds how many placeholders generate concurrently.
	// Zero falls back to the device profile's GenWorkers, and from
	// there to GOMAXPROCS. Whatever the worker count, outputs,
	// reports, budget enforcement, and error selection are
	// deterministic in document order.
	Workers int
}

// ErrGenDeadline reports a Process pass whose modelled generation time
// overran the processor's SimBudget.
var ErrGenDeadline = errors.New("core: generation deadline exceeded")

// NewPageProcessor builds a processor whose pipeline runs on the
// device's class with the named models. The pipeline gets a
// default-sized artifact cache: generation is deterministic, so
// repeat placeholders replay from the cache instead of re-running
// the model (set Pipeline.Cache to nil to force re-generation).
func NewPageProcessor(dev device.Profile, imageModel, textModel string) (*PageProcessor, error) {
	pl, err := genai.NewPipeline(dev.Class, imageModel, textModel)
	if err != nil {
		return nil, err
	}
	pl.Cache = genai.NewArtifactCache(genai.DefaultArtifactCacheBytes)
	return &PageProcessor{Pipeline: pl, Device: dev}, nil
}

// An ItemReport is the cost accounting for one generated placeholder.
type ItemReport struct {
	Name string
	Type ContentType

	// WireBytes is what the placeholder cost to transmit (JSON
	// metadata); ContentBytes is the paper-style accounting
	// (prompt + name + dimensions, without JSON syntax).
	WireBytes    int
	ContentBytes int
	// OriginalBytes is what the replaced media would have cost.
	OriginalBytes int
	// OutputBytes is the size of the locally generated artifact.
	OutputBytes int

	// SimTime is the modelled on-device generation latency.
	SimTime time.Duration
	// EnergyWh is the modelled on-device generation energy.
	EnergyWh float64

	// Alignment is the prompt adherence of generated images.
	Alignment float64
	// Words is the length of generated text.
	Words int

	// VerifyFailed marks content whose measured alignment fell below
	// the author's ExpectedAlignment attestation (§7 trust).
	VerifyFailed bool
}

// A ProcessReport aggregates a whole page's generation pass.
type ProcessReport struct {
	Items []ItemReport

	// SimGenTime is the total modelled generation time, assuming the
	// sequential generation of the prototype (§6.2 generates the 49
	// Wikimedia images one after another).
	SimGenTime time.Duration

	// SimLoadTime is the modelled pipeline load time consumed by this
	// pass (zero for an already-warm preloaded pipeline).
	SimLoadTime time.Duration

	// EnergyWh is the total modelled generation energy.
	EnergyWh float64

	// MetadataBytes (JSON), MetadataContentBytes (paper-style) and
	// OriginalBytes aggregate the per-item accounting.
	MetadataBytes        int
	MetadataContentBytes int
	OriginalBytes        int

	// VerifyFailures counts items that failed the §7 alignment
	// attestation check.
	VerifyFailures int
}

// MediaCompressionRatio is original media ÷ paper-style metadata for
// the processed page (Figure 2's 157×).
func (r *ProcessReport) MediaCompressionRatio() float64 {
	if r.MetadataContentBytes == 0 {
		return 1
	}
	return float64(r.OriginalBytes) / float64(r.MetadataContentBytes)
}

// Process walks doc, generates every placeholder in place, and
// returns the generated assets keyed by their serving path. doc is
// modified: image divs become <img src="/generated/...">, text divs
// become paragraphs (Figure 1, bottom), as a page-less pass names them.
func (pp *PageProcessor) Process(doc *html.Node) (map[string][]byte, *ProcessReport, error) {
	return pp.ProcessContext(context.Background(), "", doc)
}

// ProcessContext is Process of the page at path page (see
// generatedPath), with cooperative cancellation between placeholder
// generations: a server generating for a reset stream stops paying for
// the rest of the page — without this, a rapid-reset peer gets a full
// page generation per canceled stream, and the abuse ledger can only
// bound how often that happens, not how much each one costs.
func (pp *PageProcessor) ProcessContext(ctx context.Context, page string, doc *html.Node) (map[string][]byte, *ProcessReport, error) {
	placeholders, parseErrs := FindPlaceholders(doc)
	if err := malformed(parseErrs); err != nil {
		return nil, nil, err
	}
	assets := make(map[string][]byte)
	report := &ProcessReport{}
	pl := placement{phs: placeholders, paths: generatedPaths(page, placeholders), assets: assets}
	if err := pp.process(ctx, pl, pp.genWorkers(), report); err != nil {
		return nil, nil, err
	}
	return assets, report, nil
}

// malformed is the error a pass fails with when a page has malformed
// placeholders: the client's degradation ladder re-fetches the page
// traditionally rather than rendering a half-generated document.
func malformed(parseErrs []error) error {
	if len(parseErrs) == 0 {
		return nil
	}
	return fmt.Errorf("core: %d malformed placeholders, first: %w", len(parseErrs), parseErrs[0])
}

// processTraditional generates page p server-side into the entry the
// server caches and serves: the engine of ProcessContext over the
// page's memoized placeholders, with the results written into its
// compiled holes and its asset table. The body is, byte for byte, what
// ProcessContext of p.Path on a clone of p.Doc renders to, and the
// assets and report are its; errors are its errors. It runs on the
// calling goroutine alone, whatever pp.Workers says: the server calls
// it on a generation its guard has admitted, so MaxGenWorkers is the
// one bound on server-side generation.
func (pp *PageProcessor) processTraditional(ctx context.Context, p *Page) (*servedTraditional, error) {
	if _, err := p.parsed(); err != nil {
		return nil, err
	}
	c := p.compile()
	st := &servedTraditional{assetPaths: c.assets}
	pl := placement{phs: c.phs, paths: c.paths, page: c, slots: c.slots()}
	if err := pp.process(ctx, pl, 1, &st.report); err != nil {
		return nil, err
	}
	st.body = c.body(pl.slots)
	st.lenStr = strconv.Itoa(len(st.body))
	st.assets = pl.slots[:len(c.assets)]
	st.bytes = int64(len(st.body))
	for k := range pl.slots {
		pl.slots[k].fill = fill{} // written into body: the prose need not outlive the pass
		st.bytes += int64(len(pl.slots[k].asset))
	}
	return st, nil
}

// process runs pl's placement into report, which it fills in.
func (pp *PageProcessor) process(ctx context.Context, pl placement, workers int, report *ProcessReport) error {
	loadBefore := pp.pipelineLoadTime()
	if err := pp.runPlaceholders(ctx, pl, workers, report); err != nil {
		return err
	}
	report.SimLoadTime = pp.pipelineLoadTime() - loadBefore
	return nil
}

// A placement is what one pass generates and where each result goes, in
// document order: phs's divs replaced in their document by the nodes
// generatedNode builds and their assets put in a map by path (the
// client's pass, page nil), or page's holes filled with the markup it
// compiled from them and its assets put in its table (the server's
// traditional pass, see Page.compile).
type placement struct {
	phs    []Placeholder
	paths  []string // generatedPaths(the page's path, phs)
	assets map[string][]byte
	page   *compiledPage
	slots  []tradSlot // page.slots(), as filled
}

// sizes is placeholder i's WireSize and ContentSize.
func (pl placement) sizes(i int) (wire, content int) {
	if pl.page != nil {
		it := pl.page.items[i]
		return it.wire, it.content
	}
	c := pl.phs[i].Content
	return c.WireSize(), c.ContentSize()
}

// place puts placeholder i's generated content r where the placeholder
// was, and its asset, if any, with the pass's assets.
func (pl placement) place(i int, r *genResult) {
	if pl.page == nil {
		if r.path != "" {
			pl.assets[r.path] = r.data
		}
		ph := pl.phs[i]
		ph.Node.Parent.ReplaceChild(ph.Node, generatedNode(ph, r.path, r.text, r.item.VerifyFailed))
		return
	}
	it := &pl.page.items[i]
	if r.path != "" { // pl.paths[i]: the placeholder has an asset slot
		pl.slots[it.asset].asset = r.data
	}
	if it.hole >= 0 {
		pl.slots[it.hole].fill = it.gen.fill(r.text, r.item.VerifyFailed)
	}
}

// genResult is one placeholder's generation output, produced by a
// worker without touching the document or any shared state: data,
// which the assembly phase applies (placement, asset-map write, report
// accounting) in document order.
type genResult struct {
	item ItemReport // VerifyFailed is the §7 verdict
	path string     // generated asset path, "" when none
	data []byte     // asset bytes for path
	text string     // generated prose, for text content
	err  error
}

// genWorkers resolves the effective worker-pool size.
func (pp *PageProcessor) genWorkers() int {
	if pp.Workers > 0 {
		return pp.Workers
	}
	if pp.Device.GenWorkers > 0 {
		return pp.Device.GenWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// runPlaceholders generates pl's placeholders on at most workers
// goroutines, the caller one of them, and assembles results strictly in
// document order, so every observable outcome — asset bytes,
// placements, report contents, SimBudget cut-off point, and which error
// is returned — is identical to a sequential pass. Simulated generation
// time remains the sequential sum (§6.2 accounting); only the
// reproduction's own wall-clock is parallelized.
//
// The caller claims items like any worker and, between its own items,
// applies every result that is next in document order. Alone, it applies
// each item as it generates it: no goroutine, channel or result table.
//
// Cancellation: every worker observes ctx, and helpers stop as soon as
// assembly selects an error. Items before the failing one in document
// order are already applied (matching the sequential pass); later
// results are discarded with the whole report.
func (pp *PageProcessor) runPlaceholders(ctx context.Context, pl placement, workers int, report *ProcessReport) error {
	n := len(pl.phs)
	var h *helpers // nil when the caller works alone
	if workers = min(workers, n); workers > 1 {
		h = &helpers{results: make([]genResult, n), arrived: make([]bool, n), ready: make(chan int, n)}
		h.wg.Add(workers - 1)
		for k := 1; k < workers; k++ {
			go h.work(ctx, pp, pl)
		}
		// Stop in-flight work and wait for the helpers before returning:
		// they use caller-owned state (FetchAsset closures in particular)
		// that must not outlive the Process call.
		defer h.halt()
	}
	var err error
	for applied := 0; applied < n && err == nil; {
		i := applied // alone, the caller has claimed exactly the items it applied
		if h != nil {
			i = h.claim()
		}
		if i < n {
			r := pp.generateAt(ctx, pl, i)
			if i == applied {
				err = pp.applyResult(pl, i, &r, report)
				applied++
			} else {
				h.results[i], h.arrived[i] = r, true
			}
		} else { // every item is claimed, the next to apply by a helper
			h.arrived[<-h.ready] = true
		}
		for ; err == nil && h.done(applied); applied++ {
			err = pp.applyResult(pl, applied, &h.results[applied], report)
		}
	}
	return err
}

// helpers are the goroutines that generate beside runPlaceholders'
// caller, and what they share with it.
type helpers struct {
	next    atomic.Int64 // items claimed
	stop    atomic.Bool  // set once the caller is done with results
	wg      sync.WaitGroup
	results []genResult
	arrived []bool   // results[i] is in; read and written by the caller only
	ready   chan int // a helper's finished item; buffered, so a helper never blocks
}

// claim returns the next unclaimed item.
func (h *helpers) claim() int { return int(h.next.Add(1)) - 1 }

// done reports whether item i's result is in and waiting to be applied.
func (h *helpers) done(i int) bool { return h != nil && i < len(h.arrived) && h.arrived[i] }

func (h *helpers) work(ctx context.Context, pp *PageProcessor, pl placement) {
	defer h.wg.Done()
	for i := h.claim(); i < len(h.results); i = h.claim() {
		if !h.stop.Load() { // after stop the result is never read
			h.results[i] = pp.generateAt(ctx, pl, i)
		}
		h.ready <- i
	}
}

func (h *helpers) halt() {
	h.stop.Store(true)
	h.wg.Wait()
}

// generateAt generates placeholder i, checking ctx first: the same
// cooperative-cancellation granularity as a sequential loop.
func (pp *PageProcessor) generateAt(ctx context.Context, pl placement, i int) genResult {
	if err := ctx.Err(); err != nil {
		return genResult{err: err}
	}
	return pp.generateOne(pl.phs[i], pl.paths[i])
}

// applyResult performs placeholder i's document-order side effects:
// placement with its asset, and report accounting — the exact
// sequence (and budget cut-off semantics) of the sequential loop.
func (pp *PageProcessor) applyResult(pl placement, i int, r *genResult, report *ProcessReport) error {
	if r.err != nil {
		return r.err
	}
	pl.place(i, r)
	item := r.item
	wire, content := pl.sizes(i)
	item.WireBytes += wire
	item.ContentBytes = content
	if report.Items == nil {
		report.Items = make([]ItemReport, 0, len(pl.phs))
	}
	report.Items = append(report.Items, item)
	report.SimGenTime += item.SimTime
	if pp.SimBudget > 0 && report.SimGenTime > pp.SimBudget {
		return fmt.Errorf("%w: %v spent of %v budget after %q",
			ErrGenDeadline, report.SimGenTime, pp.SimBudget, item.Name)
	}
	report.EnergyWh += item.EnergyWh
	report.MetadataBytes += item.WireBytes
	report.MetadataContentBytes += item.ContentBytes
	report.OriginalBytes += item.OriginalBytes
	if item.VerifyFailed {
		report.VerifyFailures++
	}
	return nil
}

// pipelineLoadTime tolerates upscale-only processors, which carry no
// generation pipeline at all.
func (pp *PageProcessor) pipelineLoadTime() time.Duration {
	if pp.Pipeline == nil {
		return 0
	}
	return pp.Pipeline.SimLoadTime()
}

// generateOne produces one placeholder's content, its asset served at
// path, without side effects on the document, the asset map, or the
// report — it is safe to run concurrently for distinct placeholders.
func (pp *PageProcessor) generateOne(ph Placeholder, path string) genResult {
	meta := ph.Content.Meta
	// WireBytes and ContentBytes are the placement's to add, in
	// applyResult.
	r := genResult{item: ItemReport{
		Name:          meta.Name,
		Type:          ph.Content.Type,
		OriginalBytes: meta.OriginalBytes,
	}}
	switch ph.Content.Type {
	case ContentImage:
		if pp.Pipeline == nil {
			r.err = fmt.Errorf("core: image content %q needs a generation pipeline", meta.Name)
			return r
		}
		res, err := pp.Pipeline.GenerateImage(genai.ImageRequest{
			Prompt: meta.Prompt,
			Width:  meta.Width,
			Height: meta.Height,
			Steps:  meta.Steps,
		})
		if err != nil {
			r.err = fmt.Errorf("core: generating %q: %w", meta.Name, err)
			return r
		}
		r.path = path
		r.data = res.PNG
		r.item.OutputBytes = len(res.PNG)
		r.item.SimTime = res.SimTime
		r.item.EnergyWh = pp.Device.ImageGenEnergyWh(res.SimTime)
		r.item.Alignment = res.Alignment
		if r.item.OriginalBytes == 0 {
			r.item.OriginalBytes = res.NominalBytes
		}
		// §7 trust: verify the generation against the author's
		// attested minimum alignment, as measured on its pixels.
		if want := meta.ExpectedAlignment; want > 0 {
			r.item.VerifyFailed = res.MeasuredAlignment < want
		}

	case ContentUpscale:
		pp.generateUpscale(ph, path, &r)

	case ContentText:
		if pp.Pipeline == nil {
			r.err = fmt.Errorf("core: text content %q needs a generation pipeline", meta.Name)
			return r
		}
		res, err := pp.Pipeline.ExpandText(genai.TextRequest{
			Bullets:     meta.Bullets,
			TargetWords: meta.Words,
		})
		if err != nil {
			r.err = fmt.Errorf("core: expanding %q: %w", meta.Name, err)
			return r
		}
		r.text = res.Text
		r.item.OutputBytes = len(res.Text)
		r.item.SimTime = res.SimTime
		r.item.EnergyWh = pp.Device.TextGenEnergyWh(res.SimTime)
		r.item.Words = res.Words

	default:
		r.err = fmt.Errorf("core: unsupported content type %q", ph.Content.Type)
	}
	return r
}

// generatedNode builds what replaces placeholder ph once generated: an
// <img> of its asset at path, marked when it failed §7 verification, or
// a paragraph of its text; nil for an unsupported content type. It is
// the one builder of that markup: the document pass places its nodes,
// and Page.compile renders them once for the traditional pass.
func generatedNode(ph Placeholder, path, text string, verifyFailed bool) *html.Node {
	meta := ph.Content.Meta
	switch ph.Content.Type {
	case ContentImage:
		// Room for every attribute the image may carry: width, height
		// and the verification flag append without regrowing.
		attrs := append(make([]html.Attribute, 0, 6),
			html.Attribute{Name: "src", Value: path},
			html.Attribute{Name: "alt", Value: meta.Prompt},
			html.Attribute{Name: "class", Value: "sww-generated"},
		)
		if meta.Width > 0 {
			attrs = append(attrs,
				html.Attribute{Name: "width", Value: strconv.Itoa(meta.Width)},
				html.Attribute{Name: "height", Value: strconv.Itoa(meta.Height)})
		}
		if verifyFailed {
			attrs = append(attrs, html.Attribute{Name: "data-sww-verify", Value: "failed"})
		}
		return html.NewElement("img", attrs...)
	case ContentUpscale:
		return html.NewElement("img",
			html.Attribute{Name: "src", Value: path},
			html.Attribute{Name: "alt", Value: meta.Name},
			html.Attribute{Name: "class", Value: "sww-upscaled"},
		)
	case ContentText:
		par := html.NewElement("p", html.Attribute{Name: "class", Value: "sww-generated"})
		par.AppendChild(html.NewText(text))
		return par
	}
	return nil
}

// upscaleSeed derives the detail-synthesis seed from the source
// path's content (FNV-1a), so distinct sources never share detail
// noise. (A previous revision seeded from the path *length*, which
// collided for any two equal-length paths.)
func upscaleSeed(src string) int64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	return int64(h.Sum64())
}

// generateUpscale fetches the low-resolution source and synthesizes
// the high-resolution version locally (§2.2).
func (pp *PageProcessor) generateUpscale(ph Placeholder, path string, r *genResult) {
	meta := ph.Content.Meta
	if pp.FetchAsset == nil {
		r.err = fmt.Errorf("core: upscale content %q needs an asset fetcher", meta.Name)
		return
	}
	raw, err := pp.FetchAsset(meta.Src)
	if err != nil {
		r.err = fmt.Errorf("core: fetching upscale source %q: %w", meta.Src, err)
		return
	}
	src, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		r.err = fmt.Errorf("core: decoding upscale source %q: %w", meta.Src, err)
		return
	}
	up := pp.Upscaler
	if up == nil {
		up = imagegen.DefaultUpscaler
	}
	out, simTime, err := up.Upscale(src, meta.Scale, upscaleSeed(meta.Src), pp.Device.Class)
	if err != nil {
		r.err = fmt.Errorf("core: upscaling %q: %w", meta.Name, err)
		return
	}
	data, err := imagegen.EncodePNG(out)
	if err != nil {
		r.err = fmt.Errorf("core: encoding upscaled %q: %w", meta.Name, err)
		return
	}
	r.path = path
	r.data = data

	// The wire carried the low-res source plus the metadata; the
	// original would have been the full-resolution asset.
	r.item.WireBytes += len(raw)
	r.item.OutputBytes = len(data)
	r.item.SimTime = simTime
	r.item.EnergyWh = pp.Device.ImageGenEnergyWh(simTime)
	if r.item.OriginalBytes == 0 {
		b := out.Bounds()
		r.item.OriginalBytes = b.Dx() * b.Dy() / 8
	}
}

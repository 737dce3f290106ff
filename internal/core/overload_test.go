package core

// Overload tests: the server-side load-shed ladder end to end —
// singleflight coalescing of concurrent cold misses, the ladder rungs
// in order under saturation, and the generated-traditional cache.
// Those on the breaker's cooldown, goodput under 4× offered load and
// ResilientClient honouring 503 + Retry-After run on virtual time, in
// bubble_test.go.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/html"
	"sww/internal/http2"
	"sww/internal/overload"
)

// overloadGenPage builds a small page whose only content is one
// generatable image with a per-page unique name — no originals, so a
// traditional request can only be served by server-side generation.
func overloadGenPage(i int) *Page { return sizedGenPage(i, 64, 0) }

// sizedGenPage is overloadGenPage with a side×side image drawn in
// steps diffusion steps (0: the model's default): the shape sets the
// modelled generation time, and with it a GenWallScale-held worker's
// occupancy.
func sizedGenPage(i, side, steps int) *Page {
	gc := GeneratedContent{
		Type: ContentImage,
		Meta: Metadata{
			Prompt: fmt.Sprintf("test pattern %d, flat colors, geometric shapes", i),
			Name:   fmt.Sprintf("ovl-%03d", i),
			Width:  side, Height: side,
			Steps: steps,
		},
	}
	div, err := gc.Div()
	if err != nil {
		panic(err)
	}
	doc := html.Parse(`<html><body></body></html>`)
	doc.ByTag("body")[0].AppendChild(div)
	return &Page{Path: fmt.Sprintf("/ovl/page-%03d", i), Doc: doc}
}

// overloadOriginalsPage builds a generatable page that also stores a
// pre-rendered original — the precondition for the rung-3 policy
// flip.
func overloadOriginalsPage() *Page {
	gc := GeneratedContent{
		Type: ContentImage,
		Meta: Metadata{
			Prompt: "a cartoon goldfish in a round bowl",
			Name:   "goldfish",
			Width:  64, Height: 64,
		},
	}
	div, err := gc.Div()
	if err != nil {
		panic(err)
	}
	doc := html.Parse(`<html><body></body></html>`)
	doc.ByTag("body")[0].AppendChild(div)
	return &Page{
		Path: "/ovl/originals",
		Doc:  doc,
		Originals: []Asset{
			{Path: "/original/goldfish", ContentType: "image/jpeg", Data: []byte("jpegbytes")},
		},
	}
}

// holdScale returns the GenWallScale under which generating p holds
// its worker for hold of wall time (the modelled SimGenTime is
// deterministic per page shape).
func holdScale(t *testing.T, p *Page, hold time.Duration) float64 {
	t.Helper()
	probe, err := NewPageProcessor(device.Workstation, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := probe.Process(p.Doc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return float64(hold) / float64(report.SimGenTime)
}

func newOverloadServer(t *testing.T, cfg overload.Config) *Server {
	t.Helper()
	srv, err := NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOverload(cfg)
	return srv
}

// TestConcurrentMissSingleGeneration: N concurrent requests for one
// cold page must coalesce into exactly one backend generation — the
// dogpile fix, asserted under -race.
func TestConcurrentMissSingleGeneration(t *testing.T) {
	srv := newOverloadServer(t, overload.Config{MaxGenWorkers: 4})
	p := overloadGenPage(0)
	srv.AddPage(p)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl, _ := srv.resolve(context.Background(), "GET", p.Path, http2.GenNone, false)
			if pl.status != 200 {
				errs[i] = fmt.Errorf("status %d: %s", pl.status, pl.body)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := srv.OverloadStats()
	if st.GenRuns != 1 {
		t.Errorf("GenRuns = %d, want exactly 1 for %d concurrent misses", st.GenRuns, n)
	}
	if st.Coalesced+st.CacheHits != n-1 {
		t.Errorf("coalesced %d + cache hits %d, want %d requests served without a generation",
			st.Coalesced, st.CacheHits, n-1)
	}
}

// TestShedLadderOrder walks the four rungs in order on one saturated
// server: (1) prompts to capable clients while healthy, (2) cached
// traditional content, (3) the policy flip for capable clients whose
// page stores originals, (4) 503 + Retry-After when generation is the
// only option left.
func TestShedLadderOrder(t *testing.T) {
	srv := newOverloadServer(t, overload.Config{
		MaxGenWorkers: 1,
		QueueDeadline: 5 * time.Millisecond,
	})
	orig := overloadOriginalsPage()
	srv.AddPage(orig)
	cached := overloadGenPage(0)
	srv.AddPage(cached)
	cold := overloadGenPage(1)
	srv.AddPage(cold)

	capable := http2.GenBasic | http2.GenFull

	// Rung 1 — healthy: capable clients get prompts.
	pl, _ := srv.resolve(context.Background(), "GET", orig.Path, capable, false)
	if pl.status != 200 || pl.mode != ModeGenerative || pl.shed != "" {
		t.Fatalf("healthy capable reply = %d %q shed %q, want generative prompts", pl.status, pl.mode, pl.shed)
	}

	// Rung 2 — cached traditional: generate once, then serve from the
	// LRU.
	if pl, _ := srv.resolve(context.Background(), "GET", cached.Path, http2.GenNone, false); pl.status != 200 {
		t.Fatalf("warming cache: status %d: %s", pl.status, pl.body)
	}
	before := srv.OverloadStats()
	pl, _ = srv.resolve(context.Background(), "GET", cached.Path, http2.GenNone, false)
	after := srv.OverloadStats()
	if pl.status != 200 || pl.mode != ModeTraditional {
		t.Fatalf("cached traditional reply = %d %q", pl.status, pl.mode)
	}
	if after.CacheHits != before.CacheHits+1 || after.GenRuns != before.GenRuns {
		t.Fatalf("cached fetch ran a generation: %+v -> %+v", before, after)
	}

	// Saturate deterministically: occupy the only worker and park one
	// waiter in the queue, so Level() reads Saturated.
	g := srv.Overload()
	if err := g.Pool().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if g.Pool().Acquire(waiterCtx) == nil {
			g.Pool().Release()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, waiting := g.Pool().Load(); waiting > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if lvl := g.Level(); lvl < overload.LevelSaturated {
		t.Fatalf("level %v, want >= saturated", lvl)
	}

	// Rung 3 — policy flip: the capable client is switched to the
	// pre-rendered traditional form.
	pl, _ = srv.resolve(context.Background(), "GET", orig.Path, capable, false)
	if pl.status != 200 || pl.mode != ModeTraditional || pl.shed != shedPolicyFlip {
		t.Fatalf("saturated capable reply = %d %q shed %q, want traditional policy-flip", pl.status, pl.mode, pl.shed)
	}

	// Rung 4 — 503 + Retry-After: a cold page with no originals needs
	// a generation the server cannot afford.
	pl, _ = srv.resolve(context.Background(), "GET", cold.Path, http2.GenNone, false)
	if pl.status != 503 || pl.retryAfter < 1 {
		t.Fatalf("saturated cold reply = status %d retryAfter %d, want 503 with Retry-After", pl.status, pl.retryAfter)
	}

	cancelWaiter()
	<-waiterDone
	g.Pool().Release()

	st := srv.OverloadStats()
	if st.ShedPolicyFlip != 1 || st.Shed503 != 1 || st.QueueTimeouts != 1 {
		t.Errorf("ladder counters = %+v, want 1 policy flip, 1 shed 503, 1 queue timeout", st)
	}
}

// TestGenCacheEvictionDropsAssets: when a generated page falls out of
// the byte-capped LRU, its generated assets must stop being served
// too — cache bytes and asset-map bytes shrink together.
func TestGenCacheEvictionDropsAssets(t *testing.T) {
	// Measure one generated page's cache footprint, then cap the real
	// server's cache at 1.5× that: the second page must evict the
	// first.
	sizer := newOverloadServer(t, overload.Config{})
	sizer.AddPage(overloadGenPage(0))
	if pl, _ := sizer.resolve(context.Background(), "GET", overloadGenPage(0).Path, http2.GenNone, false); pl.status != 200 {
		t.Fatalf("sizing generation: status %d", pl.status)
	}
	pageBytes := sizer.Overload().Cache().Bytes()
	if pageBytes <= 0 {
		t.Fatal("cache empty after generation")
	}

	srv := newOverloadServer(t, overload.Config{CacheBytes: pageBytes * 3 / 2})
	a, b := overloadGenPage(0), overloadGenPage(1)
	srv.AddPage(a)
	srv.AddPage(b)
	pl, _ := srv.resolve(context.Background(), "GET", a.Path, http2.GenNone, false)
	if pl.status != 200 {
		t.Fatalf("generating a: status %d", pl.status)
	}
	var aAssets []string
	for _, path := range AssetPaths(html.Parse(string(pl.body))) {
		if strings.HasPrefix(path, "/generated/") {
			aAssets = append(aAssets, path)
		}
	}
	if len(aAssets) == 0 {
		t.Fatal("page a published no generated assets")
	}

	if pl, _ := srv.resolve(context.Background(), "GET", b.Path, http2.GenNone, false); pl.status != 200 {
		t.Fatalf("generating b: status %d", pl.status)
	}

	st := srv.OverloadStats()
	if st.CacheEvictions != 1 {
		t.Fatalf("cache evictions = %d, want 1", st.CacheEvictions)
	}
	if srv.ServerGenReport(a.Path) != nil {
		t.Error("evicted page still has a cached generation report")
	}
	for _, path := range aAssets {
		if pl, _ := srv.resolve(context.Background(), "GET", path, http2.GenNone, false); pl.status != 404 {
			t.Errorf("evicted asset %s: status %d, want 404", path, pl.status)
		}
	}
	// The evicted page regenerates on demand.
	if pl, _ := srv.resolve(context.Background(), "GET", a.Path, http2.GenNone, false); pl.status != 200 {
		t.Errorf("regenerating evicted page: status %d", pl.status)
	}
	if st := srv.OverloadStats(); st.GenRuns != 3 {
		t.Errorf("GenRuns = %d, want 3 (a, b, a again)", st.GenRuns)
	}
}

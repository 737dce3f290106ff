package core

// Overload tests: the server-side load-shed ladder end to end —
// singleflight coalescing of concurrent cold misses, breaker
// transitions driven through the serving path, the ladder rungs in
// order under saturation, goodput of admitted requests under 4×
// offered load, and ResilientClient honouring 503 + Retry-After
// without dropping the connection.

import (
	"context"
	"fmt"
	"net"
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

// TestBreakerTransitionsThroughServer drives the circuit breaker's
// full closed → open → half-open → closed cycle through the serving
// path: a failing generation backend opens the breaker (5 failures),
// open sheds with 503 + Retry-After, cooldown admits probes, and two
// probes to a healed backend close it again.
func TestBreakerTransitionsThroughServer(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	srv := newOverloadServer(t, overload.Config{
		MaxGenWorkers: 2,
		Clock:         clock,
	})
	const failures = 5
	for i := 0; i < failures+3; i++ {
		srv.AddPage(overloadGenPage(i))
	}

	// A sub-nanosecond generation budget makes every backend run fail
	// with ErrGenDeadline — a genuine generation failure, not a shed.
	srv.serverProc.SimBudget = time.Nanosecond

	for i := 0; i < failures; i++ {
		pl, _ := srv.resolve(context.Background(), "GET", overloadGenPage(i).Path, http2.GenNone, false)
		if pl.status != 500 {
			t.Fatalf("failing backend request %d: status %d, want 500", i, pl.status)
		}
	}
	if st := srv.Overload().Breaker().State(); st != overload.BreakerOpen {
		t.Fatalf("breaker %v after %d failures, want open", st, failures)
	}

	// Open: fail fast with 503 + Retry-After, no backend run.
	pl, _ := srv.resolve(context.Background(), "GET", overloadGenPage(failures).Path, http2.GenNone, false)
	if pl.status != 503 || pl.shed != "breaker-open" || pl.retryAfter < 1 {
		t.Fatalf("open-breaker reply = status %d shed %q retryAfter %d", pl.status, pl.shed, pl.retryAfter)
	}

	// Heal the backend and pass the cooldown: two half-open probes
	// must succeed, the first leaving the breaker half-open and the
	// second closing it.
	srv.serverProc.SimBudget = 0
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	for i, want := range []overload.BreakerState{overload.BreakerHalfOpen, overload.BreakerClosed} {
		pl, _ = srv.resolve(context.Background(), "GET", overloadGenPage(failures+1+i).Path, http2.GenNone, false)
		if pl.status != 200 {
			t.Fatalf("probe request %d: status %d: %s", i, pl.status, pl.body)
		}
		if st := srv.Overload().Breaker().State(); st != want {
			t.Fatalf("breaker %v after successful probe %d, want %v", st, i, want)
		}
	}

	st := srv.OverloadStats()
	if st.GenFailures != failures || st.BreakerOpens != 1 || st.BreakerRejects != 1 || st.Shed503 != 1 {
		t.Errorf("counters = %+v, want %d gen failures, 1 open, 1 reject, 1 shed 503", st, failures)
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

// TestAdmittedGoodputUnderOverload: at 4× offered load, requests that
// ARE admitted must complete at a goodput within 10% of the unloaded
// baseline — overload degrades the excess, not the admitted work — and
// the excess is shed, nothing else: every reply that is not a 200 is a
// 503 the Shed503 counter counts.
func TestAdmittedGoodputUnderOverload(t *testing.T) {
	const (
		workers = 2
		hold    = 40 * time.Millisecond
	)

	// Each generation occupies its worker for ~hold.
	scale := holdScale(t, overloadGenPage(0), hold)

	// run returns the 200s, the 503s and any other status seen.
	run := func(requests, concurrency int) (ok, shed int, other []int, goodput float64, srv *Server) {
		srv = newOverloadServer(t, overload.Config{
			MaxGenWorkers: workers,
			QueueDeadline: 5 * hold / 2,
			GenWallScale:  scale,
		})
		for i := 0; i < requests; i++ {
			srv.AddPage(overloadGenPage(i))
		}
		sem := make(chan struct{}, concurrency)
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < requests; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				pl, _ := srv.resolve(context.Background(), "GET", overloadGenPage(i).Path, http2.GenNone, false)
				mu.Lock()
				defer mu.Unlock()
				switch pl.status {
				case 200:
					ok++
				case 503:
					shed++
				default:
					other = append(other, pl.status)
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		return ok, shed, other, float64(ok) / elapsed.Seconds(), srv
	}

	// Baseline: offered load exactly matches capacity (client
	// concurrency = workers), so nothing queues and nothing sheds.
	baseOK, _, baseOther, baseGoodput, _ := run(16, workers)
	if baseOK != 16 {
		t.Fatalf("unloaded baseline: %d of 16 served, other statuses %v", baseOK, baseOther)
	}

	// 4× overload: four times the worker count in flight at all times.
	loadedOK, shed, other, loadedGoodput, srv := run(64, 4*workers)
	if loadedOK == 64 {
		t.Fatal("4x overload shed nothing; the test is not overloading")
	}
	if len(other) > 0 {
		t.Errorf("statuses %v under 4x overload: every reply must be a 200 or a 503", other)
	}
	if st := srv.OverloadStats(); st.Shed503 != uint64(shed) {
		t.Errorf("%d 503s under 4x overload, Shed503 = %d", shed, st.Shed503)
	}
	if loadedGoodput < 0.9*baseGoodput {
		t.Errorf("admitted goodput %.1f/s under overload, baseline %.1f/s: degraded more than 10%%",
			loadedGoodput, baseGoodput)
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

// TestResilientClientHonoursRetryAfter: a 503 + Retry-After shed must
// be retried on the SAME connection after waiting at least the
// advertised pause — no redial, no connection drop.
func TestResilientClientHonoursRetryAfter(t *testing.T) {
	srv := newOverloadServer(t, overload.Config{
		MaxGenWorkers: 1,
		QueueDeadline: time.Millisecond,
	})
	p := overloadGenPage(0)
	srv.AddPage(p)

	// Occupy the only generation worker so the first fetch sheds with
	// 503 + Retry-After (1s default), then free it well before the
	// client's retry lands.
	g := srv.Overload()
	if err := g.Pool().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(200 * time.Millisecond)
		g.Pool().Release()
	}()

	var dials int
	dial := func() (net.Conn, error) {
		dials++
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	}
	rc := NewResilientClient(dial, device.Laptop, nil,
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 7})
	defer rc.Close()

	start := time.Now()
	res, err := rc.Fetch(p.Path)
	elapsed := time.Since(start)
	<-released
	if err != nil {
		t.Fatalf("fetch after 503: %v", err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one 503, one success)", res.Attempts)
	}
	if dials != 1 {
		t.Errorf("dials = %d, want 1: a 503 must not drop the connection", dials)
	}
	if elapsed < 900*time.Millisecond {
		t.Errorf("retried after %v, want >= the 1s Retry-After", elapsed)
	}
	if res.Mode != ModeTraditional {
		t.Errorf("mode = %q", res.Mode)
	}
}

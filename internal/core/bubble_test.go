//go:build goexperiment.synctest

package core

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"sww/internal/device"
	"sww/internal/http2"
	"sww/internal/overload"
)

// bubble runs f in a synctest bubble, where time.Now reads a clock
// that moves on only once every goroutine in the bubble is blocked:
// breaker cooldowns, generation holds and Retry-After pauses take
// exactly their virtual time and no wall time. internal/tier's
// TestVirtualTime runs these tests in plain `go test ./...`.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestBubbleEndpointProbeCooldown: a down endpoint is unusable until the
// cooldown passes, then admits exactly one probe at a time; the probe
// outcome decides whether it reopens for everyone.
func TestBubbleEndpointProbeCooldown(t *testing.T) {
	bubble(t, func(t *testing.T) {
		ep := newTestEndpoint(EndpointHealthConfig{FailureThreshold: 1, ProbeCooldown: time.Second})
		usable := func() bool { ok, _ := ep.usable(); return ok }

		ep.ReportFailure()
		if usable() {
			t.Fatal("usable while down and cooling")
		}
		time.Sleep(2 * time.Second)
		if !usable() {
			t.Fatal("probe not admitted after cooldown")
		}
		if usable() {
			t.Fatal("second probe admitted while first is in flight")
		}
		// Probe fails: back to cooling.
		ep.ReportFailure()
		if usable() {
			t.Fatal("usable right after failed probe")
		}
		time.Sleep(2 * time.Second)
		if !usable() {
			t.Fatal("no second probe after another cooldown")
		}
		ep.ReportSuccess()
		if !ep.Healthy() || !usable() {
			t.Fatal("successful probe did not reopen the endpoint")
		}
		if h := ep.Health(); h.Probes != 2 {
			t.Fatalf("probes = %d, want 2", h.Probes)
		}
	})
}

// TestBubbleEndpointSetPick: Pick is sticky to the preferred endpoint,
// fails over in registration order when it is down, says which pick
// claimed a probe slot, and returns ErrNoEndpoints only when the
// whole set is down and cooling. (The breaker itself is overload's
// TestBubbleBreakerTransitions.)
func TestBubbleEndpointSetPick(t *testing.T) {
	bubble(t, func(t *testing.T) {
		set := NewEndpointSet(EndpointHealthConfig{FailureThreshold: 1, ProbeCooldown: time.Minute})
		a := set.Add("a", nil)
		b := set.Add("b", nil)

		ep, probe, err := set.Pick("b")
		if err != nil || ep.Name != "b" || probe {
			t.Fatalf("Pick(b) = %v, probe %v, %v", ep, probe, err)
		}
		b.ReportFailure()
		ep, probe, err = set.Pick("b")
		if err != nil || ep.Name != "a" || probe {
			t.Fatalf("failover Pick = %v, probe %v, %v, want a", ep, probe, err)
		}
		a.ReportFailure()
		if _, _, err := set.Pick("a"); !errors.Is(err, ErrNoEndpoints) {
			t.Fatalf("whole set down: err = %v", err)
		}
		// Cooldown passes: a probe slot opens the set again.
		time.Sleep(2 * time.Minute)
		ep, probe, err = set.Pick("a")
		if err != nil || ep.Name != "a" || !probe {
			t.Fatalf("post-cooldown Pick = %v, probe %v, %v, want a's probe", ep, probe, err)
		}
		// The probe's success brings a back; the counters saw every report
		// and the one probe.
		a.ReportSuccess()
		if h := a.Health(); !h.Healthy || h.Failures != 1 || h.Successes != 1 || h.Probes != 1 {
			t.Fatalf("a after its probe = %+v", h)
		}
	})
}

// TestBubbleBreakerTransitionsThroughServer drives the circuit
// breaker's full closed → open → half-open → closed cycle through the
// serving path: a failing generation backend opens the breaker (5 failures),
// open sheds with 503 + Retry-After, cooldown admits probes, and two
// probes to a healed backend close it again.
func TestBubbleBreakerTransitionsThroughServer(t *testing.T) {
	bubble(t, func(t *testing.T) {
		srv := newOverloadServer(t, overload.Config{MaxGenWorkers: 2})
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
		time.Sleep(2 * time.Second)
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
	})
}

// TestBubbleAdmittedGoodputUnderOverload: at 4× offered load, requests
// that ARE admitted must complete at a goodput within 10% of the
// unloaded baseline — overload degrades the excess, not the admitted
// work — and the excess is shed, nothing else: every reply that is not
// a 200 is a 503 the Shed503 counter counts. On virtual time a hold is
// exactly hold, so the baseline reads workers/hold = 50/s and the
// loaded run 49–50/s, whatever the machine's load.
func TestBubbleAdmittedGoodputUnderOverload(t *testing.T) {
	bubble(t, func(t *testing.T) {
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
		t.Logf("admitted goodput %.2f/s baseline, %.2f/s under 4x load (%d ok, %d shed)",
			baseGoodput, loadedGoodput, loadedOK, shed)
		if loadedGoodput < 0.9*baseGoodput {
			t.Errorf("admitted goodput %.1f/s under overload, baseline %.1f/s: degraded more than 10%%",
				loadedGoodput, baseGoodput)
		}
	})
}

// TestBubbleResilientClientHonoursRetryAfter: a 503 + Retry-After shed
// must be retried on the SAME connection after waiting at least the
// advertised pause — no redial, no connection drop.
func TestBubbleResilientClientHonoursRetryAfter(t *testing.T) {
	bubble(t, func(t *testing.T) {
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
			RetryPolicy{MaxAttempts: 3})
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
		t.Logf("retried after %v", elapsed)
		if elapsed < time.Second {
			t.Errorf("retried after %v, want >= the 1s Retry-After", elapsed)
		}
		if res.Mode != ModeTraditional {
			t.Errorf("mode = %q", res.Mode)
		}
	})
}

// TestBubbleKeepAlivePingBudget: a client connection PINGs its peer
// only while a stream is open, so keepalive spends a server's PING
// budget only on requests that wait. A request the server holds silent
// for 12 keepalive periods is PINGed and completes on the connection's
// one dial; the connection then idles for two abuse windows (20 s, 500
// periods, whose PINGs would be killed) without a PING, and serves the
// next request. The ledger kills nothing.
func TestBubbleKeepAlivePingBudget(t *testing.T) {
	bubble(t, func(t *testing.T) {
		const period = 40 * time.Millisecond
		page := overloadGenPage(0)
		srv := newOverloadServer(t, overload.Config{
			MaxGenWorkers: 1,
			GenWallScale:  holdScale(t, page, 12*period),
		})
		srv.AddPage(page)

		var tap calmTap
		var dials atomic.Int32
		rc := NewResilientClient(func() (net.Conn, error) {
			dials.Add(1)
			cEnd, sEnd := net.Pipe()
			srv.StartConn(sEnd)
			return &tapConn{Conn: cEnd, tap: &tap}, nil
		}, device.Laptop, nil, RetryPolicy{MaxAttempts: 1, PeerTimeout: period})
		defer rc.Close()
		start := time.Now()
		if _, err := rc.Fetch(page.Path); err != nil {
			t.Fatalf("held fetch: %v", err)
		}
		held, acked := time.Since(start), tap.pingAcks.Load()
		if held < 10*period || acked == 0 {
			t.Fatalf("held fetch took %v with %d PINGs answered, want ≥ %v with some", held, acked, 10*period)
		}
		time.Sleep(20 * time.Second)
		if idle := tap.pingAcks.Load() - acked; idle != 0 {
			t.Errorf("the idle connection sent %d PINGs, want none", idle)
		}
		if _, err := rc.Fetch(page.Path); err != nil {
			t.Fatalf("fetch after idling: %v", err)
		}
		if n, g := dials.Load(), srv.OverloadStats().AbuseGoAways; n != 1 || g != 0 {
			t.Errorf("%d dials and %d abuse GOAWAYs, want 1 and 0", n, g)
		}
	})
}

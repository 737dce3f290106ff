package cdn

// Tests of the origin → edge push protocol at the package's seams: the
// wire form against the url.Values encoding it replaced, the ack bytes,
// which pushes the edge applies on its read loop and which it leaves to
// a handler goroutine, and the pusher's watchdog and wake-up.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/faultnet"
	"sww/internal/http2"
)

// pushQueryOracle is the push query as url.Values encoded it: the
// reference appendPushPath must reproduce byte for byte.
func pushQueryOracle(feed InvalidationFeed) string {
	q := url.Values{}
	q.Set("since", strconv.FormatUint(feed.Since, 10))
	q.Set("seq", strconv.FormatUint(feed.Seq, 10))
	q.Set("epoch", strconv.FormatUint(feed.Epoch, 10))
	if feed.Reset {
		q.Set("reset", "1")
	}
	if len(feed.Paths) > 0 {
		escaped := make([]string, len(feed.Paths))
		for i, p := range feed.Paths {
			escaped[i] = url.QueryEscape(p)
		}
		q.Set("paths", strings.Join(escaped, ","))
	}
	return q.Encode()
}

// parseFeedQueryOracle is the parser parseFeedQuery replaced, built on
// url.ParseQuery: the reference it must agree with on every input.
func parseFeedQueryOracle(query string) (InvalidationFeed, error) {
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

// FuzzFeedQuery checks the push wire both ways. Any query decodes to
// the same feed, or fails, in parseFeedQuery as in the url.ParseQuery
// parser. Any feed encodes to the bytes url.Values did, and both
// parsers decode it back to the feed, less its empty paths. Paths come
// from pathList split on NUL.
func FuzzFeedQuery(f *testing.F) {
	for _, q := range []string{ // the hand-written pushes of the scenario tests
		"since=0&seq=5&epoch=2&paths=/stale",
		"since=0&seq=5&epoch=3&reset=1",
		"since=6&seq=11&paths=/nope",
		"since=0&seq=15&reset=1",
		"since=0&seq=12&epoch=1&paths=/p/0,/p/1,/p/2",
		"since=0&seq=2&paths=/churn",
		"since=1&seq=3&paths=/page/000",
		"since=2&seq=3&paths=/page/000",
		"epoch=1&paths=%252Fa%252Cb%2C%252F%2B&seq=3&since=1",
		"seq=1;since=0",
		"paths=%zz&seq=1",
		"se%71=4&seq=5&paths=&paths=/x",
	} {
		f.Add(q, "/blog/hike\x00/a,b\x00\x00/%&+ ü", uint64(7), uint64(3), uint64(1), false)
	}
	f.Add("", "", uint64(0), uint64(0), uint64(0), true)
	f.Fuzz(func(t *testing.T, query, pathList string, seq, since, epoch uint64, reset bool) {
		got, gotErr := parseFeedQuery(query)
		want, wantErr := parseFeedQueryOracle(query)
		if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("parseFeedQuery(%q) = %+v, %v; url.ParseQuery parser = %+v, %v", query, got, gotErr, want, wantErr)
		}

		feed := InvalidationFeed{Seq: seq, Since: since, Epoch: epoch, Reset: reset}
		if pathList != "" {
			feed.Paths = strings.Split(pathList, "\x00")
		}
		wire := string(appendPushPath(nil, feed))
		if want := pushPath + "?" + pushQueryOracle(feed); wire != want {
			t.Fatalf("appendPushPath(%+v) = %q, url.Values encoded %q", feed, wire, want)
		}
		back := feed
		back.Paths = nil
		for _, p := range feed.Paths {
			if p != "" {
				back.Paths = append(back.Paths, p)
			}
		}
		query = strings.TrimPrefix(wire, pushPath+"?")
		for name, parse := range map[string]func(string) (InvalidationFeed, error){
			"parseFeedQuery": parseFeedQuery, "url.ParseQuery parser": parseFeedQueryOracle,
		} {
			if got, err := parse(query); err != nil || !reflect.DeepEqual(got, back) {
				t.Fatalf("%s(%q) = %+v, %v; want %+v", name, query, got, err, back)
			}
		}
	})
}

// FuzzPushAck: parsePushAck reads every ack appendPushAck builds back
// to its numbers, and accepts nothing else — a body it takes is
// appendPushAck's bytes for what it read, and json.Unmarshal reads it
// the same.
func FuzzPushAck(f *testing.F) {
	for _, b := range []string{
		`{"ack":7}`, `{"ack":7,"epoch":1}`, `{"ack":18446744073709551615,"epoch":18446744073709551615}`,
		`{"ack":18446744073709551616}`, `{"ack":07}`, `{"ack":7,"epoch":0}`, `{"ack":-1}`, `{"ack":1.0}`,
		`{"ack":7,"epoch":1} `, `{"epoch":1,"ack":7}`, `{"ack":"7"}`, `{"ack":}`, `{"ack":7`, ``, `{}`,
	} {
		f.Add([]byte(b), uint64(7), uint64(1))
	}
	f.Fuzz(func(t *testing.T, body []byte, ack, epoch uint64) {
		if got, err := parsePushAck(body); err == nil {
			var want pushAck
			if wire := appendPushAck(nil, got.Ack, got.Epoch); !bytes.Equal(body, wire) {
				t.Fatalf("parsePushAck(%q) = %+v, but appendPushAck builds %s", body, got, wire)
			}
			if err := json.Unmarshal(body, &want); err != nil || got != want {
				t.Fatalf("parsePushAck(%q) = %+v; json.Unmarshal %+v, %v", body, got, want, err)
			}
		}
		wire := appendPushAck(nil, ack, epoch)
		if got, err := parsePushAck(wire); err != nil || got != (pushAck{ack, epoch}) {
			t.Fatalf("parsePushAck(%s) = %+v, %v; want {%d %d}", wire, got, err, ack, epoch)
		}
	})
}

// TestFeedPathsAreTheCallers: the push fan-out reads a one-entry feed's
// paths straight from the log, but Feed hands out a copy, so a caller
// writing to it changes no later feed.
func TestFeedPathsAreTheCallers(t *testing.T) {
	o := NewOrigin(newHAServer(t), 64)
	defer o.Close()
	o.Invalidate([]string{"/a", "/b"})
	o.Feed(0).Paths[0] = "/x"
	if got := o.Feed(0).Paths; !reflect.DeepEqual(got, []string{"/a", "/b"}) {
		t.Fatalf("Feed(0).Paths = %q after a caller wrote to an earlier feed, want [/a /b]", got)
	}
}

// TestPushAckBytes: the ack built in place is json.Marshal's, with and
// without an epoch, and it is what both push surfaces send — the edge's
// and the standby origin's.
func TestPushAckBytes(t *testing.T) {
	for _, a := range []pushAck{{0, 0}, {7, 0}, {7, 1}, {0, 3}, {1<<64 - 1, 1<<64 - 1}} {
		want, _ := json.Marshal(a)
		if got := appendPushAck(nil, a.Ack, a.Epoch); string(got) != string(want) {
			t.Errorf("appendPushAck(%d, %d) = %s, json.Marshal %s", a.Ack, a.Epoch, got, want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	standby, err := NewOriginWithConfig(newHAServer(t), OriginConfig{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	for name, serve := range map[string]func(net.Conn){
		"edge":    func(c net.Conn) { e.StartConn(c) },
		"standby": func(c net.Conn) { standby.Server().StartConn(c) },
	} {
		rc := core.NewResilientClient(func() (net.Conn, error) {
			cEnd, sEnd := net.Pipe()
			serve(sEnd)
			return cEnd, nil
		}, device.Workstation, nil, core.RetryPolicy{MaxAttempts: 1})
		defer rc.Close()
		raw, err := rc.FetchRawContext(ctx, pushPath+"?epoch=1&paths=%252Fa&seq=4&since=0")
		if err != nil || raw.Status != 200 {
			t.Fatalf("%s push: %v", name, err)
		}
		want, _ := json.Marshal(pushAck{Ack: 4, Epoch: 1})
		if string(raw.Body) != string(want) || raw.ContentType != "application/json" {
			t.Errorf("%s ack = %s (%s), want %s", name, raw.Body, raw.ContentType, want)
		}
	}
}

// servePaths is the edge's handler with a count of where each request
// was served: on the read loop, or declined there and served on a
// goroutine (counted as it starts).
type servePaths struct {
	edgeHandler
	inline, declined, goroutine atomic.Int32
}

func (h *servePaths) TryServeSWW(w *http2.ResponseWriter, r *http2.Request) bool {
	if h.edgeHandler.TryServeSWW(w, r) {
		h.inline.Add(1)
		return true
	}
	h.declined.Add(1)
	return false
}

func (h *servePaths) ServeSWW(w *http2.ResponseWriter, r *http2.Request) {
	h.goroutine.Add(1)
	h.edgeHandler.ServeSWW(w, r)
}

// TestInlinePushDeclines: the read loop applies an aligned push and
// acks a duplicate; a push it would wait for (feedMu held), a reset, a
// stale epoch, a gap and an overlap go to the goroutine path, and so
// does an applied push whose ack the transport cannot take at once —
// whose re-serve then finds a duplicate. Every push is applied once,
// and the edge's counters read what they read when every push was
// served on a goroutine. (A push that may be served inline may also be
// declined: TryRespond declines when another frame is being written at
// that instant.)
func TestInlinePushDeclines(t *testing.T) {
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	h := &servePaths{edgeHandler: edgeHandler{e}}
	srv := &http2.Server{Handler: h, Config: http2.Config{GenAbility: http2.GenFull}}
	dial := func(cfg http2.Config) *http2.ClientConn {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		cc, err := http2.NewClientConn(cEnd, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	get := func(cc *http2.ClientConn, path string) []byte {
		t.Helper()
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := http2.ReadAllBody(resp)
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET %s: status %d, %v", path, resp.Status, err)
		}
		return body
	}
	push := func(cc *http2.ClientConn, query string) (ack pushAck) {
		t.Helper()
		if err := json.Unmarshal(get(cc, pushPath+"?"+query), &ack); err != nil {
			t.Fatalf("push %s: %v", query, err)
		}
		return ack
	}
	// step pushes on cc; a push that must decline is counted declined
	// before its reply is sent, so the count is read race-free.
	cc := dial(http2.Config{})
	step := func(cc *http2.ClientConn, query string, wantAck pushAck, mustDecline bool) {
		t.Helper()
		declined := h.declined.Load()
		if ack := push(cc, query); ack != wantAck {
			t.Errorf("push %s acked %+v, want %+v", query, ack, wantAck)
		}
		if mustDecline && h.declined.Load() != declined+1 {
			t.Errorf("push %s was not left to a goroutine", query)
		}
	}

	step(cc, "since=0&seq=1&epoch=1&paths=/a", pushAck{1, 1}, false)

	// feedMu held (by a poll, say): the read loop does not wait for it.
	e.feedMu.Lock()
	served := h.goroutine.Load()
	acked := make(chan pushAck)
	go func() { acked <- push(cc, "since=1&seq=2&epoch=1&paths=/b") }()
	for h.goroutine.Load() == served {
		runtime.Gosched()
	}
	if got := e.LastSeq(); got != 1 {
		t.Errorf("a push applied while feedMu was held: lastSeq %d", got)
	}
	e.feedMu.Unlock()
	if ack := <-acked; ack != (pushAck{2, 1}) {
		t.Errorf("held-lock push acked %+v, want {2 1}", ack)
	}

	step(cc, "since=0&seq=5&epoch=1&reset=1", pushAck{5, 1}, true)
	step(cc, "since=5&seq=6&epoch=3&paths=/c", pushAck{6, 3}, false) // a failover
	step(cc, "since=6&seq=7&epoch=2&paths=/d", pushAck{6, 3}, true)  // a zombie's push
	step(cc, "since=9&seq=10&epoch=3&paths=/e", pushAck{6, 3}, true) // a gap
	step(cc, "since=5&seq=7&epoch=3&paths=/f", pushAck{6, 3}, true)  // an overlap
	step(cc, "since=5&seq=6&epoch=3&paths=/c", pushAck{6, 3}, false) // a duplicate

	// A one-byte stream window: the ack cannot go out whole on the read
	// loop, after the push was applied there.
	step(dial(http2.Config{InitialWindowSize: 1}), "since=6&seq=8&epoch=3&paths=/g,/h", pushAck{8, 3}, true)

	// The read loop counts an inline serve after its reply is out, so
	// one more request on cc orders every earlier count before the read;
	// that request's own count may still land just after its reply.
	if body := get(cc, healthPath); string(body) != "ok\n" {
		t.Errorf("health = %q", body)
	}
	for deadline := time.Now().Add(5 * time.Second); h.inline.Load()+h.declined.Load() < 10 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if i, d, g := h.inline.Load(), h.declined.Load(), h.goroutine.Load(); i+d != 10 || d != g || i == 0 {
		t.Errorf("served %d inline, %d declined, %d on goroutines; want 10 offered, every decline served, some inline", i, d, g)
	}
	s := e.Stats()
	got := [...]uint64{s.LastSeq, s.PushApplied, s.PushGaps, s.PushOverlaps, s.EpochFenced, s.InvalResets, s.OriginFailovers}
	if want := [...]uint64{8, 5, 1, 1, 1, 1, 1}; got != want {
		t.Errorf("lastSeq, applied, gaps, overlaps, fenced, resets, failovers = %v, want %v", got, want)
	}
}

// TestPollRacingPushAppliesOnce: a poll whose reply a push overtook
// applies nothing. The edge stands at seq 5 and polls; while the poll
// is in flight a push applies seq 6, which unpublishes /a, and a miss
// refills /a from the origin. The poll's reply re-covers what the push
// applied, exactly ({since 5, seq 6}, a duplicate) or with more after
// it ({since 5, seq 7}, an overlap). It must not drop the fresh /a
// again nor move lastSeq past what the edge applied; the next poll,
// from 6, brings the rest.
func TestPollRacingPushAppliesOnce(t *testing.T) {
	for _, tc := range []struct{ name, reply string }{
		{"duplicate", `{"since":5,"seq":6,"paths":["/a"],"epoch":1}`},
		{"overlap", `{"since":5,"seq":7,"paths":["/a","/b"],"epoch":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			polled, release := make(chan struct{}), make(chan struct{})
			origin := &http2.Server{Handler: http2.HandlerFunc(func(w *http2.ResponseWriter, r *http2.Request) {
				if strings.HasPrefix(r.Path, invalidationsPath) {
					close(polled)
					<-release
					writeControl(w, 200, "application/json", []byte(tc.reply))
					return
				}
				writeControl(w, 200, "text/html", []byte("page "+r.Path))
			})}
			origins := core.NewEndpointSet(core.EndpointHealthConfig{})
			origins.Add("origin", func() (net.Conn, error) {
				cEnd, sEnd := net.Pipe()
				origin.StartConn(sEnd)
				return cEnd, nil
			})
			e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
			defer e.Close()
			e.SetLastSeq(5)
			cEnd, sEnd := net.Pipe()
			e.StartConn(sEnd)
			cc, err := http2.NewClientConn(cEnd, http2.Config{GenAbility: http2.GenFull})
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			get := func(path string) string {
				t.Helper()
				resp, err := cc.Get(path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				body, err := http2.ReadAllBody(resp)
				if err != nil || resp.Status != 200 {
					t.Fatalf("GET %s: status %d, %v", path, resp.Status, err)
				}
				return resp.HeaderValue(core.EdgeCacheHeader) + " " + string(body)
			}

			get("/a") // warm at seq 5
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			pollErr := make(chan error, 1)
			go func() { pollErr <- e.PollOnce(ctx) }()
			<-polled
			if got := get(pushPath + "?since=5&seq=6&epoch=1&paths=/a"); got != ` {"ack":6,"epoch":1}` {
				t.Fatalf("push reply %q", got)
			}
			if got := get("/a"); got != "miss page /a" {
				t.Fatalf("GET /a after the push = %q, want a miss that refills it", got)
			}
			close(release)
			if err := <-pollErr; err != nil {
				t.Fatal(err)
			}
			if got := get("/a"); got != "hit page /a" {
				t.Errorf("GET /a after the raced poll = %q, want the refilled entry's hit", got)
			}
			if s := e.Stats(); s.LastSeq != 6 || s.InvalApplied != 1 {
				t.Errorf("lastSeq %d, %d invalidations applied; want 6, 1 (the push's)", s.LastSeq, s.InvalApplied)
			}
		})
	}
}

// TestPushWatchdog: a push into a blackhole — the dial "succeeds" and
// nothing ever answers — fails within about pushTimeout instead of
// pinning the pusher, and the next push redials and delivers both
// entries.
func TestPushWatchdog(t *testing.T) {
	o := NewOrigin(newHAServer(t), 0)
	defer o.Close()
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	var dials atomic.Int32
	o.Subscribe("edge1", "", 0, func() (net.Conn, error) {
		if dials.Add(1) == 1 {
			return faultnet.Blackhole(), nil
		}
		cEnd, sEnd := net.Pipe()
		e.StartConn(sEnd)
		return cEnd, nil
	})
	start := time.Now()
	o.Invalidate([]string{"/a"})
	for o.Stats().PushErrors == 0 {
		if time.Since(start) > 3*pushTimeout {
			t.Fatalf("a push into a blackhole still pending after %v", time.Since(start))
		}
		time.Sleep(10 * time.Millisecond)
	}
	o.Invalidate([]string{"/b"})
	for e.LastSeq() != 2 {
		if time.Since(start) > 6*pushTimeout {
			t.Fatalf("edge at %d after the blackhole, want 2 (%d dials)", e.LastSeq(), dials.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().PushApplied; got != 2 {
		t.Errorf("push applied %d paths, want 2", got)
	}
}

// TestPushNeverLost: with the poller off only a push can deliver, and
// back-to-back invalidations from two goroutines must each reach the
// edge within 100ms. A wake-up that lands while the pusher is finishing
// a drain used to be dropped, leaving the entry to the next Invalidate.
func TestPushNeverLost(t *testing.T) {
	o := NewOrigin(newHAServer(t), 0)
	defer o.Close()
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	o.Subscribe("edge1", "", 0, func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		e.StartConn(sEnd)
		return cEnd, nil
	})
	end := time.Now().Add(5 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; time.Now().Before(end); round++ {
				o.Invalidate([]string{"/a"})
				o.Invalidate([]string{"/b"})
				seq := o.Seq()
				for start := time.Now(); e.LastSeq() < seq; runtime.Gosched() {
					if time.Since(start) > 100*time.Millisecond {
						errs <- fmt.Errorf("goroutine %d, round %d: edge at %d, origin at %d after 100ms", g, round, e.LastSeq(), seq)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

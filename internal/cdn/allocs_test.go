//go:build !race

package cdn

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/http2"
	"sww/internal/workload"
)

// TestEdgeHitAllocs: a GET answered from the edge's shard costs the
// client what any warm h2 fetch does — the body it returns, in the
// Stream the previous GET retired (2 while each GET made a Stream) —
// and the edge nothing: the read loop answers in the Stream its
// previous reply left, the shard key is looked up from a stack buffer,
// and the entry carries its content-length. (The race
// detector's instrumentation allocates; hence the build tag.)
func TestEdgeHitAllocs(t *testing.T) {
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	const path = "/prompt/page"
	body := bytes.Repeat([]byte("p"), 700)
	e.store(cacheKey(path, http2.GenFull), path, http2.GenFull, core.RawReply{
		Status: 200, ContentType: "text/html; charset=utf-8", Mode: core.ModeGenerative, Body: body,
	})
	cEnd, sEnd := net.Pipe()
	sc := e.StartConn(sEnd)
	cc, err := http2.NewClientConn(cEnd, http2.Config{GenAbility: http2.GenFull})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	defer cc.Close()

	get := func() {
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		cache := resp.HeaderValue(core.EdgeCacheHeader)
		got, err := http2.ReadAllBody(resp)
		if err != nil || len(got) != len(body) || cache != "hit" {
			t.Fatalf("GET = %d bytes, %v, %s %q", len(got), err, core.EdgeCacheHeader, cache)
		}
	}
	for i := 0; i < 100; i++ { // fill the dynamic tables and the writer's buffers
		get()
	}
	if allocs := testing.AllocsPerRun(200, get); allocs > 1 {
		t.Fatalf("one shard-hit GET allocates %v objects, want at most 1 (the body)", allocs)
	}
}

// TestPushAllocs: one Invalidate pushed to one subscribed edge and
// acked back costs what a fetch costs, counted process-wide. The origin
// builds the push path from the log entry in the pusher's scratch,
// makes it a string once for every subscriber standing at the head,
// waits on no per-push context and reads the ack in place; the edge
// parses the query in place, looks its paths up as bytes, and applies
// and acks on its read loop. 4 objects at this writing (5 while the
// origin's client made a Stream for each push, 6 while it returned a
// *RawReply, 14 before the feed, the ack and the pushed paths were
// read in place, 58 before the push was built in place): the log
// entry's paths, the path string and the ack body on the origin, whose
// push runs in the Stream the previous one retired; the :path header
// on the edge. A second subscriber at the head adds its ack body and
// :path header, but no path string.
func TestPushAllocs(t *testing.T) {
	o := NewOrigin(newHAServer(t), 64) // a short log stops growing after warm-up
	defer o.Close()
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	o.Subscribe("edge1", "", 0, func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		e.StartConn(sEnd)
		return cEnd, nil
	})
	paths := []string{"/blog/hike"}
	push := func() {
		o.Invalidate(paths)
		awaitPush(t, o, e)
	}
	for i := 0; i < 200; i++ { // dial, fill the dynamic tables, grow the log to its cap
		push()
	}
	if allocs := testing.AllocsPerRun(500, push); allocs > 5 {
		t.Fatalf("one invalidation pushed and acked allocates %v objects, want at most 5", allocs)
	}
}

// TestRefillAllocs: one invalidation of a cached page, pushed to the
// edge, and the next GET of that page — a miss, pulled from the origin
// and cached again — counted process-wide, with a zero Retry (as the
// benchmark's edges) and with sww-server's edge policy. The miss builds
// what the shard keeps and what its transports need, nothing else: the
// pull runs under no request's context, names the client's ability
// with a shared header list, is cached once for every request
// coalesced on it, and is indexed in place. Its deadline is a context
// shared by the pulls that start within a second of one another
// (upstreamCtx), and the origin connection's one cancel hook on that
// context serves them all: a policy's PeerTimeout bounds connects and
// paces keepalive, and times no attempt. The reply comes back by value,
// inside the entry. Every h2 client here — the origin's pusher, the
// edge's pull, the test's GET — runs in the Stream its previous
// exchange retired. 11 objects on both rows at this writing (14 while
// each of those three made a Stream; 15 while each pull made its
// singleflight call, which the pull now reuses when no request joined
// it; 25 with sww-server's policy while each attempt ran under a
// deadline of its own; 16 while each declined request started a
// handler goroutine, 21 while each pull registered a cancel hook of
// its own and returned a *RawReply, 31 before that, 44 before that):
//   - the push's 4: the log entry's paths, the path string, the
//     origin's ack body, the edge's :path header;
//   - on the edge: the key, the entry, its content-length string, its
//     shard node, and the Stream that replaces the one the parked
//     handler took;
//   - the pull's body;
//   - the client's body.
func TestRefillAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		retry core.RetryPolicy
	}{
		{"zero-retry", core.RetryPolicy{}},
		{"sww-server", core.RetryPolicy{MaxAttempts: 3, PeerTimeout: 2 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newHAServer(t)
			srv.AddPage(workload.LoadPage(0))
			path := workload.LoadPagePath(0)
			o := NewOrigin(srv, 64)
			defer o.Close()
			origins := core.NewEndpointSet(core.EndpointHealthConfig{})
			origins.Add("origin", func() (net.Conn, error) {
				cEnd, sEnd := net.Pipe()
				srv.StartConn(sEnd)
				return cEnd, nil
			})
			e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour, Retry: tc.retry}, origins)
			defer e.Close()
			o.Subscribe("edge1", "", 0, func() (net.Conn, error) {
				cEnd, sEnd := net.Pipe()
				e.StartConn(sEnd)
				return cEnd, nil
			})
			cEnd, sEnd := net.Pipe()
			sc := e.StartConn(sEnd)
			cc, err := http2.NewClientConn(cEnd, http2.Config{GenAbility: http2.GenFull})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			defer cc.Close()
			paths := []string{path}
			refill := func() {
				o.Invalidate(paths)
				awaitPush(t, o, e)
				resp, err := cc.Get(path)
				if err != nil {
					t.Fatal(err)
				}
				status, cache := resp.Status, resp.HeaderValue(core.EdgeCacheHeader)
				body, err := http2.ReadAllBody(resp)
				if err != nil || status != 200 || len(body) == 0 || cache != "miss" {
					t.Fatalf("GET after invalidation = %d, %d bytes, %v, %s %q", status, len(body), err, core.EdgeCacheHeader, cache)
				}
			}
			for i := 0; i < 200; i++ { // dial both ways, fill the dynamic tables, grow the log to its cap
				refill()
			}
			if allocs := testing.AllocsPerRun(500, refill); allocs > 12 {
				t.Fatalf("one invalidation and the miss that refills it allocate %v objects, want at most 12", allocs)
			}
		})
	}
}

// ackDeadline bounds each wait for a push to land, so that a feed rule
// which stops applying pushes fails the test that waits instead of
// spinning until the package times out and reports nothing else.
const ackDeadline = 10 * time.Second

// awaitPush spins until edge1 has applied and acked the origin's head,
// allocating nothing, and fails t with the ack, the edge's LastSeq and
// the head once ackDeadline has passed.
func awaitPush(t *testing.T, o *Origin, e *Edge) {
	for deadline := time.Now().Add(ackDeadline); ; runtime.Gosched() {
		ack, _ := o.SubscriberAck("edge1")
		head, last := o.Seq(), e.LastSeq()
		if ack == head && last == head {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("push not acked within %v: ack %d, edge LastSeq %d, origin head %d", ackDeadline, ack, last, head)
		}
	}
}

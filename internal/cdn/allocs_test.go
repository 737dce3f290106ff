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
// client what any warm h2 fetch does — its Stream and the body it
// returns — and the edge nothing: the read loop answers in the Stream
// its previous reply left, the shard key is looked up from a stack
// buffer, and the entry carries its content-length. (The race
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
		got, err := http2.ReadAllBody(resp)
		if err != nil || len(got) != len(body) || resp.HeaderValue(core.EdgeCacheHeader) != "hit" {
			t.Fatalf("GET = %d bytes, %v, headers %v", len(got), err, resp.Header)
		}
	}
	for i := 0; i < 100; i++ { // fill the dynamic tables and the writer's buffers
		get()
	}
	if allocs := testing.AllocsPerRun(200, get); allocs > 2 {
		t.Fatalf("one shard-hit GET allocates %v objects, want at most 2 (the client's Stream and body)", allocs)
	}
}

// TestPushAllocs: one Invalidate pushed to one subscribed edge and
// acked back costs what a fetch costs, counted process-wide. The origin
// builds the push path from the log entry in the pusher's scratch,
// makes it a string once for every subscriber standing at the head,
// waits on no per-push context and reads the ack in place; the edge
// parses the query in place, looks its paths up as bytes, and applies
// and acks on its read loop. 5 objects at this writing (6 while the
// origin's client returned a *RawReply, 14 before the feed, the ack and
// the pushed paths were read in place, 58 before the push was built in
// place): the log entry's paths, the path string, and the client's
// Stream and the ack body on the origin; the :path header on the edge.
// A second subscriber at the head adds its Stream, ack body and :path
// header, but no path string.
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
	if allocs := testing.AllocsPerRun(500, push); allocs > 6 {
		t.Fatalf("one invalidation pushed and acked allocates %v objects, want at most 6", allocs)
	}
}

// TestRefillAllocs: one invalidation of a cached page, pushed to the
// edge, and the next GET of that page — a miss, pulled from the origin
// and cached again — counted process-wide. The miss builds what the
// shard keeps and what its transports need, nothing else: the pull runs
// under no request's context, names the client's ability with a shared
// header list, is cached once for every request coalesced on it, and is
// indexed in place. Its deadline is a context shared by the pulls that
// start within a second of one another (upstreamCtx), and, as this
// edge's Retry sets no AttemptTimeout, the origin connection's one
// cancel hook on that context serves them all. The reply comes back
// by value, inside the entry. 16 objects at this writing (21 while each pull registered a cancel hook of its own and
// returned a *RawReply, 31 before that, 44 before that):
//   - the push's 5: the log entry's paths, the path string, the
//     origin's Stream and ack body, the edge's :path header;
//   - on the edge: the key, the singleflight call, the entry, its
//     content-length string, its shard node, and the closure of the
//     handler's go statement with the Stream that replaces the one the
//     handler took;
//   - the pull's Stream and body;
//   - the client's Stream and body.
func TestRefillAllocs(t *testing.T) {
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
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
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
		body, err := http2.ReadAllBody(resp)
		if err != nil || resp.Status != 200 || len(body) == 0 || resp.HeaderValue(core.EdgeCacheHeader) != "miss" {
			t.Fatalf("GET after invalidation = %d, %d bytes, %v, headers %v", resp.Status, len(body), err, resp.Header)
		}
	}
	for i := 0; i < 200; i++ { // dial both ways, fill the dynamic tables, grow the log to its cap
		refill()
	}
	if allocs := testing.AllocsPerRun(500, refill); allocs > 17 {
		t.Fatalf("one invalidation and the miss that refills it allocate %v objects, want at most 17", allocs)
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

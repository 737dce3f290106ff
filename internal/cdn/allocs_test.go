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
	e.store(cacheKey(path, http2.GenFull), path, &core.RawReply{
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
// acked back costs about what a fetch costs, counted process-wide. The
// origin builds the push path in the pusher's scratch and waits on no
// per-push context; the edge parses the query in place and applies and
// acks on its read loop. 14 objects at this writing (58 before the push
// was built in place): the log entry and its feed, the path string, the
// client's Stream, RawReply, body and ack decoding on the origin; the
// path header, feed paths and their slice on the edge.
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
		for {
			if ack, _ := o.SubscriberAck("edge1"); ack == o.Seq() && e.LastSeq() == ack {
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 200; i++ { // dial, fill the dynamic tables, grow the log to its cap
		push()
	}
	if allocs := testing.AllocsPerRun(500, push); allocs > 16 {
		t.Fatalf("one invalidation pushed and acked allocates %v objects, want at most 16", allocs)
	}
}

package cdn

// The feed rule as a table: every cell of (Reset, Since ⋚ last,
// Seq ⋚ last, Epoch ⋚ mine) through each of its three receivers — an
// edge's push, an edge's poll and a standby's mirror — and the standby's
// ladder of feeds one after another.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/http2"
)

// The receiver of every cell stands at tableLast and has seen origin
// epoch tableMine.
const (
	tableLast = 4
	tableMine = 2
)

// seqGrid is the verdict on a feed that is neither fenced nor a reset,
// by its Since and its Seq against the receiver's position (<, =, >).
var seqGrid = [3][3]feedVerdict{
	{feedDuplicate, feedDuplicate, feedOverlap}, // Since < last
	{feedDuplicate, feedDuplicate, feedApply},   // Since = last
	{feedGap, feedGap, feedGap},                 // Since > last
}

var verdictNames = [...]string{
	feedApply: "apply", feedDuplicate: "duplicate", feedOverlap: "overlap",
	feedGap: "gap", feedReset: "reset", feedFenced: "fenced",
}

func (v feedVerdict) String() string { return verdictNames[v] }

// A feedCell is one row of the table: a feed and the verdict on it for
// a receiver at (tableLast, tableMine).
type feedCell struct {
	name string
	feed InvalidationFeed
	want feedVerdict
}

// feedCells lists every cell. A fenced epoch decides before a reset, a
// reset before the grid; an Epoch of 0 is a pre-epoch origin, never
// fenced. Each feed names one cached path, /p.
func feedCells() []feedCell {
	rel := [3]string{"<", "=", ">"}
	sinces := [3]uint64{2, tableLast, 5}
	seqs := [3]uint64{3, tableLast, 6} // a reset to 3 re-anchors below last
	epochs := [...]struct {
		name  string
		epoch uint64
	}{{"epoch0", 0}, {"epoch<", 1}, {"epoch=", tableMine}, {"epoch>", 3}}
	var cells []feedCell
	for _, reset := range []bool{false, true} {
		for i, since := range sinces {
			for j, seq := range seqs {
				for _, ep := range epochs {
					c := feedCell{
						name: fmt.Sprintf("since%slast,seq%slast,%s", rel[i], rel[j], ep.name),
						feed: InvalidationFeed{Reset: reset, Since: since, Seq: seq, Epoch: ep.epoch, Paths: []string{"/p"}},
						want: seqGrid[i][j],
					}
					if reset {
						c.name, c.want = "reset,"+c.name, feedReset
					}
					if ep.epoch == 1 {
						c.want = feedFenced
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// edgeState is what a push or a poll leaves on the edge.
type edgeState struct {
	LastSeq, Epoch            uint64
	PHeld, QHeld              bool // /p is the feed's path, /q another
	Applied, Gaps, Overlaps   uint64
	Fenced, Resets, Failovers uint64
}

// wantEdge is what the edge's push (push set) or poll leaves after
// the feed of cell c.
func wantEdge(c feedCell, push bool) edgeState {
	s := edgeState{LastSeq: tableLast, Epoch: max(tableMine, c.feed.Epoch), PHeld: true, QHeld: true}
	switch c.want {
	case feedApply:
		s.LastSeq, s.PHeld = c.feed.Seq, false
		if push {
			s.Applied = 1
		}
	case feedReset:
		s.LastSeq, s.PHeld, s.QHeld, s.Resets = c.feed.Seq, false, false, 1
	case feedFenced:
		s.Fenced = 1
	case feedGap:
		if push {
			s.Gaps = 1
		}
	case feedOverlap:
		if push {
			s.Overlaps = 1
		}
	}
	if c.feed.Epoch > tableMine {
		s.Failovers = 1
	}
	return s
}

// tableEdge builds an edge at (tableLast, tableMine) holding /p and
// /q, its origin dialled through dial (nil: none).
func tableEdge(t *testing.T, dial core.DialFunc) *Edge {
	t.Helper()
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	if dial != nil {
		origins.Add("origin", dial)
	}
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
	t.Cleanup(func() { e.Close() })
	e.lastSeq.Store(tableLast)
	e.originEpoch.Store(tableMine)
	for _, p := range []string{"/p", "/q"} {
		e.store(cacheKey(p, http2.GenFull), p, http2.GenFull, &core.RawReply{Status: 200, Body: []byte(p)})
	}
	return e
}

func (e *Edge) tableState() edgeState {
	s := e.Stats()
	return edgeState{
		LastSeq: s.LastSeq, Epoch: e.OriginEpoch(),
		PHeld: e.Cached("/p", http2.GenFull), QHeld: e.Cached("/q", http2.GenFull),
		Applied: s.PushApplied, Gaps: s.PushGaps, Overlaps: s.PushOverlaps,
		Fenced: s.EpochFenced, Resets: s.InvalResets, Failovers: s.OriginFailovers,
	}
}

// mirrorState is what a mirrored feed leaves on the standby: its ack,
// its epoch, and the feed it answers from 0.
type mirrorState struct {
	Ack, Epoch uint64
	FromZero   InvalidationFeed
}

// wantMirror is what the standby leaves after the feed of cell c. It
// starts at tableLast with /x logged at 2 and /y at 4.
func wantMirror(c feedCell) mirrorState {
	logged := InvalidationFeed{Seq: tableLast, Paths: []string{"/x", "/y"}}
	switch c.want {
	case feedApply:
		logged = InvalidationFeed{Seq: c.feed.Seq, Paths: []string{"/x", "/y", "/p"}}
	case feedReset, feedGap:
		// The head is adopted as seq and floor: 0 is below the log.
		logged = InvalidationFeed{Seq: c.feed.Seq, Reset: true}
	}
	logged.Epoch = max(tableMine, c.feed.Epoch)
	return mirrorState{Ack: logged.Seq, Epoch: logged.Epoch, FromZero: logged}
}

func tableStandby(t *testing.T) *Origin {
	t.Helper()
	o, err := NewOriginWithConfig(newHAServer(t), OriginConfig{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	o.MirrorFeed(InvalidationFeed{Since: 0, Seq: 2, Paths: []string{"/x"}, Epoch: tableMine})
	o.MirrorFeed(InvalidationFeed{Since: 2, Seq: tableLast, Paths: []string{"/y"}, Epoch: tableMine})
	if feed := o.Feed(0); feed.Seq != tableLast || feed.Epoch != tableMine || strings.Join(feed.Paths, " ") != "/x /y" {
		t.Fatalf("standby set up as %+v, want /x and /y logged up to %d at epoch %d", feed, tableLast, tableMine)
	}
	return o
}

// TestFeedVerdicts is the feed rule, cell by cell, and what each
// receiver does with each verdict:
//
//	verdict    push (edge)              poll (edge)              mirror (standby)
//	apply      apply, ack Seq           apply                    log, ack Seq
//	duplicate  ack last                 nothing                  ack seq
//	overlap    count, ack last          nothing                  ack seq
//	gap        count, ack last          nothing                  adopt Seq as seq and floor
//	reset      count, flush, take Seq   count, flush, take Seq   adopt Seq as seq and floor
//	fenced     count, ack newer epoch   count, error, rotate     ack seq
//
// On the read loop a push other than an apply or a duplicate is
// declined to a handler goroutine. An edge counts a newer epoch as a
// failover whatever the verdict.
func TestFeedVerdicts(t *testing.T) {
	for _, c := range feedCells() {
		t.Run(c.name, func(t *testing.T) {
			if got := judgeFeed(c.feed, tableLast, tableMine); got != c.want {
				t.Fatalf("judgeFeed = %v, want %v", got, c.want)
			}
			t.Run("push", func(t *testing.T) { tablePush(t, c) })
			t.Run("poll", func(t *testing.T) { tablePoll(t, c) })
			t.Run("mirror", func(t *testing.T) {
				o := tableStandby(t)
				got := mirrorState{Ack: o.MirrorFeed(c.feed), Epoch: o.Epoch(), FromZero: o.Feed(0)}
				if want := wantMirror(c); !reflect.DeepEqual(got, want) {
					t.Errorf("standby after a %v:\n got %+v\nwant %+v", c.want, got, want)
				}
			})
		})
	}
	t.Run("standby-ladder", standbyLadder)
}

// standbyLadder feeds a standby one feed after another: in order, a
// duplicate, an overlap (a push racing the mirror poll) and the
// re-push that completes it, then a reset. Each step checks the
// verdict, the ack, and the feeds the standby then answers — "reset",
// or the paths they name — so no range is logged twice.
func standbyLadder(t *testing.T) {
	o, err := NewOriginWithConfig(newHAServer(t), OriginConfig{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	for _, step := range []struct {
		name  string
		feed  InvalidationFeed
		want  feedVerdict
		ack   uint64
		feeds map[uint64]string
	}{
		{"in order", InvalidationFeed{Since: 0, Seq: 1, Paths: []string{"/a"}, Epoch: 1}, feedApply, 1,
			map[uint64]string{0: "/a"}},
		{"in order again", InvalidationFeed{Since: 1, Seq: 3, Paths: []string{"/b", "/c"}, Epoch: 1}, feedApply, 3,
			map[uint64]string{0: "/a /b /c", 1: "/b /c"}},
		{"duplicate", InvalidationFeed{Since: 1, Seq: 3, Paths: []string{"/b", "/c"}, Epoch: 1}, feedDuplicate, 3,
			map[uint64]string{1: "/b /c"}},
		{"overlap", InvalidationFeed{Since: 1, Seq: 5, Paths: []string{"/b", "/c", "/d", "/e"}, Epoch: 1}, feedOverlap, 3,
			map[uint64]string{1: "/b /c", 3: ""}},
		{"re-push", InvalidationFeed{Since: 3, Seq: 5, Paths: []string{"/d", "/e"}, Epoch: 1}, feedApply, 5,
			map[uint64]string{1: "/b /c /d /e", 3: "/d /e"}},
		{"reset", InvalidationFeed{Seq: 10, Reset: true, Epoch: 1}, feedReset, 10,
			map[uint64]string{3: "reset", 10: ""}},
	} {
		if got := judgeFeed(step.feed, o.Seq(), o.Epoch()); got != step.want {
			t.Errorf("%s: judgeFeed = %v, want %v", step.name, got, step.want)
		}
		if ack := o.MirrorFeed(step.feed); ack != step.ack {
			t.Errorf("%s: mirror ack %d, want %d", step.name, ack, step.ack)
		}
		for since, want := range step.feeds {
			feed := o.Feed(since)
			got := strings.Join(feed.Paths, " ")
			if feed.Reset {
				got = "reset"
			}
			if got != want {
				t.Errorf("%s: Feed(%d) = %q, want %q", step.name, since, got, want)
			}
		}
	}
}

// tablePush pushes the cell's feed to a fresh edge over HTTP/2, as the
// origin's pusher does, so the read loop is offered it first.
func tablePush(t *testing.T, c feedCell) {
	e := tableEdge(t, nil)
	h := &servePaths{edgeHandler: edgeHandler{e}}
	srv := &http2.Server{Handler: h, Config: http2.Config{GenAbility: http2.GenFull}}
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	cc, err := http2.NewClientConn(cEnd, http2.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	resp, err := cc.Get(string(appendPushPath(nil, c.feed)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := http2.ReadAllBody(resp)
	if err != nil || resp.Status != 200 {
		t.Fatalf("push: status %d, %v", resp.Status, err)
	}
	ack, err := parsePushAck(body)
	if err != nil {
		t.Fatal(err)
	}
	// A decline is counted before its goroutine's reply is sent.
	if inline := c.want == feedApply || c.want == feedDuplicate; !inline && h.declined.Load() != 1 {
		t.Errorf("a %v push was not left to a goroutine", c.want)
	}
	want := wantEdge(c, true)
	if ack != (pushAck{want.LastSeq, want.Epoch}) {
		t.Errorf("ack %+v, want {%d %d}", ack, want.LastSeq, want.Epoch)
	}
	if got := e.tableState(); got != want {
		t.Errorf("edge after a %v push:\n got %+v\nwant %+v", c.want, got, want)
	}
}

// tablePoll has a fresh edge poll an origin that answers the cell's
// feed.
func tablePoll(t *testing.T, c feedCell) {
	reply, err := json.Marshal(c.feed)
	if err != nil {
		t.Fatal(err)
	}
	origin := &http2.Server{Handler: http2.HandlerFunc(func(w *http2.ResponseWriter, _ *http2.Request) {
		writeControl(w, 200, "application/json", reply)
	})}
	e := tableEdge(t, func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		origin.StartConn(sEnd)
		return cEnd, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.PollOnce(ctx); (err != nil) != (c.want == feedFenced) {
		t.Errorf("a %v poll returned %v", c.want, err)
	}
	if got, want := e.tableState(), wantEdge(c, false); got != want {
		t.Errorf("edge after a %v poll:\n got %+v\nwant %+v", c.want, got, want)
	}
}

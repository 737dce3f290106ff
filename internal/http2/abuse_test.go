package http2

import (
	"io"
	"sync"
	"testing"
	"time"

	"sww/internal/hpack"
)

// TestAbuseLedgerEscalation walks one kind through every stage of its
// budget of 100: within budget, ignore, calm (conn flagged), kill.
func TestAbuseLedgerEscalation(t *testing.T) {
	l := new(abuseLedger)

	for i := 1; i <= 401; i++ {
		act := l.note(AbuseRapidReset)
		var want AbuseAction
		switch {
		case i <= 100:
			want = AbuseNone
		case i <= 200:
			want = AbuseIgnore
		case i <= 400:
			want = AbuseCalm
		default:
			want = AbuseKill
		}
		if act != want {
			t.Fatalf("event %d: action %v, want %v", i, act, want)
		}
	}
	if kind, flagged := l.flagged(); !flagged || kind != AbuseRapidReset {
		t.Fatalf("flagged() = %v, %v; want rapid-reset, true", kind, flagged)
	}
}

// TestAbuseLedgerKindsIndependent: each kind has its own budget; a
// ping flood does not consume the rapid-reset budget.
func TestAbuseLedgerKindsIndependent(t *testing.T) {
	l := new(abuseLedger)
	for i := 0; i < 401; i++ {
		l.note(AbusePingFlood)
	}
	if act := l.note(AbuseRapidReset); act != AbuseNone {
		t.Fatalf("rapid-reset scored %v after unrelated ping flood", act)
	}
}

// blockingHandler parks every request until the test ends, so streams
// stay live when their RST arrives.
func blockingHandler(t *testing.T) Handler {
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	return HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-done
	})
}

// abuseRecorder captures OnAbuse callbacks.
type abuseRecorder struct {
	mu     sync.Mutex
	events []struct {
		kind AbuseKind
		act  AbuseAction
	}
}

func (r *abuseRecorder) hook(k AbuseKind, a AbuseAction) {
	r.mu.Lock()
	r.events = append(r.events, struct {
		kind AbuseKind
		act  AbuseAction
	}{k, a})
	r.mu.Unlock()
}

func (r *abuseRecorder) count(k AbuseKind, a AbuseAction) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.kind == k && e.act == a {
			n++
		}
	}
	return n
}

// killStorm is the shortest rapid-reset storm that draws a GOAWAY
// when every reset is scored: 4× the budget of 100, plus one. The
// resets past 2× the budget flag the connection, and every later
// HEADERS is refused and scored as the same abuse.
const killStorm = 401

// TestRapidResetStormGoAway: a HEADERS+RST_STREAM storm must first see
// new streams refused with ENHANCE_YOUR_CALM and then the connection
// killed with GOAWAY(ENHANCE_YOUR_CALM).
func TestRapidResetStormGoAway(t *testing.T) {
	rec := &abuseRecorder{}
	p := dialRawCfg(t, Config{OnAbuse: rec.hook}, blockingHandler(t))

	go p.resetStorm(killStorm, "/storm", nil)
	expectCalmThenGoAway(t, p, rec)
}

// resetStorm opens n streams on path and resets each behind its
// HEADERS — right behind them, or after settle if one is given. Run it
// on a goroutine: net.Pipe is synchronous, so the test must keep
// reading or the server's responses (and its GOAWAY) could never be
// sent. It gives up quietly when the server closes mid-storm.
func (p *rawPeer) resetStorm(n int, path string, settle func()) {
	for i := 0; i < n; i++ {
		id := uint32(1 + 2*i)
		block := p.henc.AppendFields(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":path", Value: path},
		})
		if p.fr.WriteHeaders(id, true, true, block) != nil {
			return
		}
		if settle != nil {
			settle()
		}
		if p.fr.WriteRSTStream(id, ErrCodeCancel) != nil {
			return
		}
	}
}

// expectCalmThenGoAway reads until the storm has drawn its GOAWAY.
func expectCalmThenGoAway(t *testing.T, p *rawPeer, rec *abuseRecorder) {
	t.Helper()
	sawCalmRST := false
	var ga Frame
	for i := 0; i < 2*killStorm; i++ {
		fr := p.read()
		if fr.Type == FrameRSTStream && rstCode(fr) == ErrCodeEnhanceYourCalm {
			sawCalmRST = true
		}
		if fr.Type == FrameGoAway {
			ga = fr
			break
		}
	}
	if ga.Type != FrameGoAway {
		t.Fatal("storm never drew a GOAWAY")
	}
	if code := goAwayCode(ga); code != ErrCodeEnhanceYourCalm {
		t.Fatalf("GOAWAY code %v, want ENHANCE_YOUR_CALM", code)
	}
	if !sawCalmRST {
		t.Error("no stream was refused with ENHANCE_YOUR_CALM before the GOAWAY")
	}
	if rec.count(AbuseRapidReset, AbuseKill) == 0 {
		t.Error("OnAbuse never reported the rapid-reset kill")
	}
}

// TestRapidResetZeroWindowStillScored: a peer that advertises a zero
// stream window parks every handler that writes a body before its first
// DATA frame. Those streams have sent the peer nothing, so resetting
// them is as rapid a reset as against a handler that never writes, and
// must be scored: "wrote data" means a DATA frame was queued, not that
// the handler asked for one. The storm is exactly long enough to kill
// when every reset is scored, so one reset let off leaves the
// connection up.
func TestRapidResetZeroWindowStillScored(t *testing.T) {
	rec := &abuseRecorder{}
	cfg := Config{OnAbuse: rec.hook}
	writing := make(chan struct{}, 1)
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		select {
		case writing <- struct{}{}:
		default: // past the settled resets nobody waits
		}
		io.WriteString(w, "a body the peer left no window for")
	})
	p, _ := dialRawConn(t, cfg, h, Setting{SettingInitialWindowSize, 0})
	// The first resets give their handlers time to get as far as the
	// window. Whether they did changes nothing now; it used to be what
	// made the reset look like a mid-response cancellation. Streams
	// refused on the flagged connection never reach the handler at all.
	settled := 0
	go p.resetStorm(killStorm, "/storm", func() {
		if settled++; settled > 8 {
			return
		}
		select {
		case <-writing:
			time.Sleep(2 * time.Millisecond)
		case <-time.After(20 * time.Millisecond):
		}
	})
	expectCalmThenGoAway(t, p, rec)
}

// TestPingFloodStopsAcks: past the budget of 100, PING ACKs stop (no
// write amplification), and far past it the connection dies with
// ENHANCE_YOUR_CALM.
func TestPingFloodStopsAcks(t *testing.T) {
	p := dialRawCfg(t, Config{}, HandlerFunc(okHandler))

	go func() {
		for i := 0; i < 500; i++ {
			var data [8]byte
			data[0] = byte(i)
			if err := p.fr.WritePing(false, data); err != nil {
				return
			}
		}
	}()
	acks := 0
	var ga Frame
	for i := 0; i < 1000; i++ {
		fr := p.read()
		if fr.Type == FramePing && fr.Has(FlagAck) {
			acks++
		}
		if fr.Type == FrameGoAway {
			ga = fr
			break
		}
	}
	if ga.Type != FrameGoAway || goAwayCode(ga) != ErrCodeEnhanceYourCalm {
		t.Fatalf("flood outcome %v, want GOAWAY(ENHANCE_YOUR_CALM)", ga.FrameHeader)
	}
	if acks != 100 {
		t.Errorf("ACKed %d pings, want exactly the budget of 100", acks)
	}
}

// TestSettingsFloodIgnoredThenKilled mirrors the PING flood for
// SETTINGS frames, budget 20.
func TestSettingsFloodIgnoredThenKilled(t *testing.T) {
	p := dialRawCfg(t, Config{}, HandlerFunc(okHandler))

	go func() {
		for i := 0; i < 100; i++ {
			if err := p.fr.WriteSettings(); err != nil {
				return
			}
		}
	}()
	acks := 0
	var ga Frame
	for i := 0; i < 100; i++ {
		fr := p.read()
		if fr.Type == FrameSettings && fr.Has(FlagAck) {
			acks++
		}
		if fr.Type == FrameGoAway {
			ga = fr
			break
		}
	}
	if ga.Type != FrameGoAway || goAwayCode(ga) != ErrCodeEnhanceYourCalm {
		t.Fatalf("flood outcome %v, want GOAWAY(ENHANCE_YOUR_CALM)", ga.FrameHeader)
	}
	// The handshake SETTINGS consumed one budget slot before the
	// flood; the ledger must have stopped ACKing at the budget.
	if acks > 20 {
		t.Errorf("ACKed %d SETTINGS, budget was 20", acks)
	}
}

// TestEmptyDataFloodKilled: zero-length DATA frames without
// END_STREAM are free under flow control but not under the ledger.
func TestEmptyDataFloodKilled(t *testing.T) {
	p := dialRawCfg(t, Config{}, blockingHandler(t))

	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/upload"},
	})
	if err := p.fr.WriteHeaders(1, false, true, block); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 500; i++ {
			if err := p.fr.WriteData(1, false, nil); err != nil {
				return
			}
		}
	}()
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeEnhanceYourCalm {
		t.Fatalf("GOAWAY code %v, want ENHANCE_YOUR_CALM", code)
	}
}

// TestContinuationFloodKilled: a chain of empty CONTINUATION frames
// never trips the byte cap, so the frame-count cap must catch it.
func TestContinuationFloodKilled(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))

	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/"},
	})
	// HEADERS without END_HEADERS, then empty CONTINUATIONs forever.
	if err := p.fr.WriteHeaders(1, true, false, block); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < maxEmptyContinuations+4; i++ {
			if err := p.fr.WriteContinuation(1, false, nil); err != nil {
				return
			}
		}
	}()
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeEnhanceYourCalm {
		t.Fatalf("GOAWAY code %v, want ENHANCE_YOUR_CALM", code)
	}
}

// TestLegitBurstyCancelNoFalsePositive: a client cancelling a burst of
// in-flight requests below the default budget keeps full service.
func TestLegitBurstyCancelNoFalsePositive(t *testing.T) {
	rec := &abuseRecorder{}
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/slow" {
			<-done
			return
		}
		okHandler(w, r)
	})
	cfg := Config{OnAbuse: rec.hook} // default policy: budget 100
	p := dialRawCfg(t, cfg, h)

	for i := 0; i < 20; i++ {
		id := uint32(1 + 2*i)
		block := p.henc.AppendFields(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":path", Value: "/slow"},
		})
		if err := p.fr.WriteHeaders(id, true, true, block); err != nil {
			t.Fatal(err)
		}
		if err := p.fr.WriteRSTStream(id, ErrCodeCancel); err != nil {
			t.Fatal(err)
		}
	}
	// Service continues: a fresh request gets a response.
	p.request(41, "/")
	hf := p.readUntil(FrameHeaders)
	if hf.StreamID != 41 {
		t.Fatalf("response on stream %d, want 41", hf.StreamID)
	}
	rec.mu.Lock()
	n := len(rec.events)
	rec.mu.Unlock()
	if n != 0 {
		t.Fatalf("legit burst raised %d abuse events", n)
	}
}

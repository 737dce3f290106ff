package http2

import (
	"io"
	"sync"
	"testing"
	"time"

	"sww/internal/hpack"
)

// fakeClock is a manually advanced time source for ledger tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (fc *fakeClock) now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.t
}

func (fc *fakeClock) advance(d time.Duration) {
	fc.mu.Lock()
	fc.t = fc.t.Add(d)
	fc.mu.Unlock()
}

func testLedger(budget int, fc *fakeClock) *abuseLedger {
	return newAbuseLedger(&AbusePolicy{
		Window:           10 * time.Second,
		RapidResetBudget: budget,
		Clock:            fc.now,
	})
}

// TestAbuseLedgerEscalation walks one kind through every stage:
// within budget, ignore, calm (conn flagged), kill.
func TestAbuseLedgerEscalation(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	l := testLedger(10, fc)

	for i := 1; i <= 41; i++ {
		act := l.note(AbuseRapidReset)
		var want AbuseAction
		switch {
		case i <= 10:
			want = AbuseNone
		case i <= 20:
			want = AbuseIgnore
		case i <= 40:
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

// TestAbuseLedgerWindowReset: counters decay across sliding windows —
// an old burst must not poison the budget forever.
func TestAbuseLedgerWindowReset(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	l := testLedger(10, fc)

	for i := 0; i < 15; i++ {
		l.note(AbuseRapidReset)
	}
	if act := l.note(AbuseRapidReset); act != AbuseIgnore {
		t.Fatalf("over budget action %v, want ignore", act)
	}
	// Two full windows later both buckets have expired.
	fc.advance(20 * time.Second)
	if act := l.note(AbuseRapidReset); act != AbuseNone {
		t.Fatalf("after 2 windows action %v, want none", act)
	}

	// One window later the old bucket still weighs in, scaled by the
	// remaining overlap: right at the window boundary it counts fully.
	for i := 0; i < 15; i++ {
		l.note(AbuseRapidReset)
	}
	fc.advance(10 * time.Second)
	if act := l.note(AbuseRapidReset); act == AbuseNone {
		t.Fatal("previous bucket ignored immediately after window slide")
	}
	// Near the end of the next window the overlap has decayed away.
	fc.advance(9 * time.Second)
	if act := l.note(AbuseRapidReset); act != AbuseNone {
		t.Fatalf("decayed bucket still scoring: %v", act)
	}
}

// TestAbuseLedgerBurstyLegit: a client that stays below budget every
// window never escalates, however long it keeps going.
func TestAbuseLedgerBurstyLegit(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	l := testLedger(100, fc)

	for window := 0; window < 10; window++ {
		for i := 0; i < 40; i++ {
			if act := l.note(AbuseRapidReset); act != AbuseNone {
				t.Fatalf("window %d event %d: action %v", window, i, act)
			}
		}
		fc.advance(10 * time.Second)
	}
	if _, flagged := l.flagged(); flagged {
		t.Fatal("bursty-legit connection got flagged")
	}
}

// TestAbuseLedgerKindsIndependent: each kind has its own budget; a
// ping flood does not consume the rapid-reset budget.
func TestAbuseLedgerKindsIndependent(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	l := newAbuseLedger(&AbusePolicy{PingBudget: 2, RapidResetBudget: 100, Clock: fc.now})
	for i := 0; i < 5; i++ {
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

// TestRapidResetStormGoAway: a HEADERS+RST_STREAM storm against a
// small budget must first see new streams refused with
// ENHANCE_YOUR_CALM and then the connection killed with
// GOAWAY(ENHANCE_YOUR_CALM).
func TestRapidResetStormGoAway(t *testing.T) {
	rec := &abuseRecorder{}
	cfg := Config{
		AbusePolicy: &AbusePolicy{RapidResetBudget: 5},
		OnAbuse:     rec.hook,
	}
	p := dialRawCfg(t, cfg, blockingHandler(t))

	go p.resetStorm(25, "/storm", nil) // 5×budget
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
	for i := 0; i < 200; i++ {
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
// the handler asked for one.
func TestRapidResetZeroWindowStillScored(t *testing.T) {
	rec := &abuseRecorder{}
	cfg := Config{
		AbusePolicy: &AbusePolicy{RapidResetBudget: 5},
		OnAbuse:     rec.hook,
	}
	writing := make(chan struct{}, 1)
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		writing <- struct{}{}
		io.WriteString(w, "a body the peer left no window for")
	})
	p, _ := dialRawConn(t, cfg, h, Setting{SettingInitialWindowSize, 0})
	// Each reset gives its handler time to get as far as the window.
	// Whether it did changes nothing now; it used to be what made the
	// reset look like a mid-response cancellation. Streams refused on
	// the flagged connection never reach the handler at all.
	go p.resetStorm(25, "/storm", func() {
		select {
		case <-writing:
			time.Sleep(2 * time.Millisecond)
		case <-time.After(20 * time.Millisecond):
		}
	})
	expectCalmThenGoAway(t, p, rec)
}

// TestPingFloodStopsAcks: past the budget, PING ACKs stop (no write
// amplification), and far past it the connection dies with
// ENHANCE_YOUR_CALM.
func TestPingFloodStopsAcks(t *testing.T) {
	cfg := Config{AbusePolicy: &AbusePolicy{PingBudget: 4}}
	p := dialRawCfg(t, cfg, HandlerFunc(okHandler))

	go func() {
		for i := 0; i < 20; i++ {
			var data [8]byte
			data[0] = byte(i)
			if err := p.fr.WritePing(false, data); err != nil {
				return
			}
		}
	}()
	acks := 0
	var ga Frame
	for i := 0; i < 100; i++ {
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
	if acks != 4 {
		t.Errorf("ACKed %d pings, want exactly the budget of 4", acks)
	}
}

// TestSettingsFloodIgnoredThenKilled mirrors the PING flood for
// SETTINGS frames.
func TestSettingsFloodIgnoredThenKilled(t *testing.T) {
	cfg := Config{AbusePolicy: &AbusePolicy{SettingsBudget: 3}}
	p := dialRawCfg(t, cfg, HandlerFunc(okHandler))

	go func() {
		for i := 0; i < 20; i++ {
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
	if acks > 3 {
		t.Errorf("ACKed %d SETTINGS, budget was 3", acks)
	}
}

// TestEmptyDataFloodKilled: zero-length DATA frames without
// END_STREAM are free under flow control but not under the ledger.
func TestEmptyDataFloodKilled(t *testing.T) {
	cfg := Config{AbusePolicy: &AbusePolicy{EmptyDataBudget: 4}}
	p := dialRawCfg(t, cfg, blockingHandler(t))

	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/upload"},
	})
	if err := p.fr.WriteHeaders(1, false, true, block); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 40; i++ {
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

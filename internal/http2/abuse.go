package http2

// Abuse-rate defense for served connections.
//
// A peer can stay inside HTTP/2's per-frame rules while still attacking
// the endpoint with cheap-to-send, expensive-to-serve traffic: HEADERS
// immediately followed by RST_STREAM (the rapid-reset pattern), PING or
// SETTINGS floods that each oblige an ACK write, WINDOW_UPDATE and
// empty-DATA floods that burn read-loop cycles, and CONTINUATION chains
// that tie up header assembly. The abuse ledger scores each of these
// against a per-kind sliding-window budget and escalates:
//
//	within budget          → AbuseNone:   normal processing
//	(budget, 2×budget]     → AbuseIgnore: stop processing/ACKing the
//	                          flooding frame kind (kills the write
//	                          amplification, costs the peer nothing real)
//	(2×budget, 4×budget]   → AbuseCalm:   connection is flagged; new
//	                          streams are refused with
//	                          RST_STREAM(ENHANCE_YOUR_CALM) before they
//	                          reach the handler or the generation worker
//	                          pool
//	beyond 4×budget        → AbuseKill:   GOAWAY(ENHANCE_YOUR_CALM)
//
// All scoring happens on the connection's frame-reader goroutine; the
// ledger's mutex exists only so tests and counters may peek safely.

import (
	"sync"
	"time"
)

// AbuseKind enumerates the misbehaviour patterns the ledger scores.
type AbuseKind int

const (
	// AbuseRapidReset is a peer RST_STREAM of a live peer-initiated
	// stream before the server wrote any response DATA — the
	// CVE-2023-44487 request-flood shape.
	AbuseRapidReset AbuseKind = iota
	// AbusePingFlood is an excess of non-ACK PING frames, each of
	// which obliges an ACK write.
	AbusePingFlood
	// AbuseSettingsFlood is an excess of non-ACK SETTINGS frames,
	// each of which obliges an ACK write and a settings walk.
	AbuseSettingsFlood
	// AbuseWindowUpdateFlood is an excess of WINDOW_UPDATE frames.
	AbuseWindowUpdateFlood
	// AbuseEmptyDataFlood is an excess of zero-length DATA frames
	// without END_STREAM, which consume no flow-control window and so
	// are otherwise free to spam.
	AbuseEmptyDataFlood
	// AbuseContinuationFlood is a CONTINUATION chain exceeding the
	// per-block frame caps.
	AbuseContinuationFlood

	numAbuseKinds
)

func (k AbuseKind) String() string {
	switch k {
	case AbuseRapidReset:
		return "rapid-reset"
	case AbusePingFlood:
		return "ping-flood"
	case AbuseSettingsFlood:
		return "settings-flood"
	case AbuseWindowUpdateFlood:
		return "window-update-flood"
	case AbuseEmptyDataFlood:
		return "empty-data-flood"
	case AbuseContinuationFlood:
		return "continuation-flood"
	}
	return "unknown-abuse"
}

// AbuseAction is the ledger's verdict after scoring one event.
type AbuseAction int

const (
	// AbuseNone: within budget, process normally.
	AbuseNone AbuseAction = iota
	// AbuseIgnore: over budget — drop the frame without the usual
	// processing or ACK.
	AbuseIgnore
	// AbuseCalm: well over budget — the connection is flagged and new
	// streams are refused with ENHANCE_YOUR_CALM. Also reported once
	// per refused stream.
	AbuseCalm
	// AbuseKill: far over budget — the connection is torn down with
	// GOAWAY(ENHANCE_YOUR_CALM).
	AbuseKill
)

func (a AbuseAction) String() string {
	switch a {
	case AbuseNone:
		return "none"
	case AbuseIgnore:
		return "ignore"
	case AbuseCalm:
		return "calm"
	case AbuseKill:
		return "kill"
	}
	return "unknown-action"
}

// Per-header-block CONTINUATION caps. The byte cap
// (maxHeaderBlockBytes) bounds memory; these bound CPU against chains
// of tiny or empty CONTINUATION frames that never trip the byte cap.
const (
	maxContinuationFrames = 64
	maxEmptyContinuations = 8
)

// abuseWindow is the ledger's sliding window, and abuseBudgets the
// events of each kind it allows per window before escalating.
const abuseWindow = 10 * time.Second

var abuseBudgets = [numAbuseKinds]float64{
	// Peer resets of streams that received no response DATA.
	AbuseRapidReset: 100,
	// Non-ACK PINGs: far above any keepalive cadence, so health
	// checks never trip it.
	AbusePingFlood: 100,
	// Non-ACK SETTINGS frames: a legitimate peer sends one or two per
	// connection lifetime.
	AbuseSettingsFlood: 20,
	// WINDOW_UPDATE frames: generous, because fast transfers
	// legitimately emit many; sent DATA earns more (see note).
	AbuseWindowUpdateFlood: 4000,
	// Zero-length non-END_STREAM DATA frames.
	AbuseEmptyDataFlood: 100,
	// A single over-cap CONTINUATION chain is already a connection
	// error; the budget only shapes the reported action.
	AbuseContinuationFlood: 1,
}

// abuseBucket is a two-bucket sliding-window counter: the estimate is
// the current bucket plus the previous bucket weighted by how much of
// it still overlaps the window. Cheap, and within a factor the exact
// count — accurate enough for budgets enforced at 1×/2×/4×.
type abuseBucket struct {
	start     time.Time // start of the current bucket
	cur, prev int
}

// slide expires the bucket's counts against the sliding window ending
// at now, then returns the windowed estimate: the current bucket plus
// the previous bucket weighted by its remaining overlap.
func (b *abuseBucket) slide(now time.Time) float64 {
	const w = abuseWindow
	if b.start.IsZero() {
		b.start = now
	}
	switch elapsed := now.Sub(b.start); {
	case elapsed >= 2*w:
		// The whole window slid past: both buckets expire.
		b.prev, b.cur = 0, 0
		b.start = now
	case elapsed >= w:
		b.prev, b.cur = b.cur, 0
		b.start = b.start.Add(w)
	}
	frac := 1 - float64(now.Sub(b.start))/float64(w)
	return float64(b.cur) + float64(b.prev)*frac
}

// abuseLedger scores abuse events for one connection.
type abuseLedger struct {
	mu       sync.Mutex
	buckets  [numAbuseKinds]abuseBucket
	dataSent abuseBucket // DATA frames sent to the peer (earned credit)
	calmed   bool
	calmKind AbuseKind
}

// note records one event of kind k and returns the escalation verdict.
func (l *abuseLedger) note(k AbuseKind) AbuseAction {
	now := time.Now()

	l.mu.Lock()
	defer l.mu.Unlock()
	b := &l.buckets[k]
	est := b.slide(now) + 1 // +1 counts the event being noted
	b.cur++

	budget := abuseBudgets[k]
	if k == AbuseWindowUpdateFlood {
		// A receiver's legitimate WINDOW_UPDATE rate is bounded by the
		// DATA we send it — it cannot honestly return window it was
		// never delivered. Each DATA frame sent earns the peer credit
		// for two updates (one stream-level, one connection-level), so
		// a fast transfer on a long-lived connection never trips the
		// budget, while a flood on an idle connection still hits the
		// fixed floor. Without this, dropping over-budget updates
		// permanently leaks send window and deadlocks a legitimately
		// fast peer.
		budget += 2 * l.dataSent.slide(now)
	}
	switch {
	case est <= budget:
		return AbuseNone
	case est <= 2*budget:
		return AbuseIgnore
	case est <= 4*budget:
		if !l.calmed {
			l.calmed = true
			l.calmKind = k
		}
		return AbuseCalm
	default:
		return AbuseKill
	}
}

// noteDataSent records one flow-consuming DATA frame sent to the
// peer. Sent DATA earns the peer WINDOW_UPDATE budget (see note):
// updates proportional to delivered data are the protocol working as
// designed, not abuse. Zero-length frames earn nothing — they consume
// no window and so oblige no update.
func (l *abuseLedger) noteDataSent() {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dataSent.slide(now)
	l.dataSent.cur++
}

// flagged reports whether the connection has reached the Calm stage,
// and which kind put it there.
func (l *abuseLedger) flagged() (AbuseKind, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calmKind, l.calmed
}

// noteAbuse scores one event on the connection's ledger. It fires the
// OnAbuse hook for any escalation and converts AbuseKill into the
// ENHANCE_YOUR_CALM connection error that aborts the connection
// through the regular dispatch path. A nil ledger (client role)
// always returns AbuseNone.
func (c *conn) noteAbuse(k AbuseKind) (AbuseAction, error) {
	if c.abuse == nil {
		return AbuseNone, nil
	}
	act := c.abuse.note(k)
	if act != AbuseNone && c.cfg.OnAbuse != nil {
		c.cfg.OnAbuse(k, act)
	}
	if act == AbuseKill {
		return act, connError(ErrCodeEnhanceYourCalm, "abuse: %v rate exceeded", k)
	}
	return act, nil
}

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

// AbusePolicy configures the per-connection abuse ledger on served
// connections. The zero value (and a nil policy) means
// DefaultAbusePolicy; set Disabled to turn the ledger off entirely.
//
// Budgets are events per Window. Escalation is relative to the
// budget: exceeding it starts ignoring the frame kind, exceeding 2×
// flags the connection (new streams refused with ENHANCE_YOUR_CALM),
// exceeding 4× kills the connection with GOAWAY.
type AbusePolicy struct {
	Disabled bool

	// Window is the sliding-window length. Zero means 10s.
	Window time.Duration

	// RapidResetBudget bounds peer resets of streams that received no
	// response DATA. Zero means 100.
	RapidResetBudget int

	// PingBudget bounds non-ACK PINGs. Zero means 100 — far above any
	// keepalive cadence, so health checks never trip it.
	PingBudget int

	// SettingsBudget bounds non-ACK SETTINGS frames. Zero means 20; a
	// legitimate peer sends one or two per connection lifetime.
	SettingsBudget int

	// WindowUpdateBudget bounds WINDOW_UPDATE frames. Zero means
	// 4000 — generous, because fast transfers legitimately emit many.
	WindowUpdateBudget int

	// EmptyDataBudget bounds zero-length non-END_STREAM DATA frames.
	// Zero means 100.
	EmptyDataBudget int
}

// DefaultAbusePolicy returns the policy used when Config.AbusePolicy
// is nil.
func DefaultAbusePolicy() *AbusePolicy { return &AbusePolicy{} }

func (p *AbusePolicy) window() time.Duration {
	if p == nil || p.Window <= 0 {
		return 10 * time.Second
	}
	return p.Window
}

func (p *AbusePolicy) budget(k AbuseKind) int {
	pick := func(v, def int) int {
		if p == nil || v == 0 {
			return def
		}
		return v
	}
	switch k {
	case AbuseRapidReset:
		return pick(p.RapidResetBudget, 100)
	case AbusePingFlood:
		return pick(p.PingBudget, 100)
	case AbuseSettingsFlood:
		return pick(p.SettingsBudget, 20)
	case AbuseWindowUpdateFlood:
		return pick(p.WindowUpdateBudget, 4000)
	case AbuseEmptyDataFlood:
		return pick(p.EmptyDataBudget, 100)
	case AbuseContinuationFlood:
		// A single over-cap CONTINUATION chain is already a
		// connection error; the budget only shapes the reported
		// action.
		return 1
	}
	return 1
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
func (b *abuseBucket) slide(now time.Time, w time.Duration) float64 {
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
	policy *AbusePolicy

	mu       sync.Mutex
	buckets  [numAbuseKinds]abuseBucket
	dataSent abuseBucket // DATA frames sent to the peer (earned credit)
	calmed   bool
	calmKind AbuseKind
}

func newAbuseLedger(p *AbusePolicy) *abuseLedger {
	if p == nil {
		p = DefaultAbusePolicy()
	}
	return &abuseLedger{policy: p}
}

// note records one event of kind k and returns the escalation verdict.
func (l *abuseLedger) note(k AbuseKind) AbuseAction {
	now := time.Now()
	w := l.policy.window()

	l.mu.Lock()
	defer l.mu.Unlock()
	b := &l.buckets[k]
	est := b.slide(now, w) + 1 // +1 counts the event being noted
	b.cur++

	budget := float64(l.policy.budget(k))
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
		budget += 2 * l.dataSent.slide(now, w)
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
	w := l.policy.window()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dataSent.slide(now, w)
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
// through the regular dispatch path. A nil ledger (client role, or
// Disabled policy) always returns AbuseNone.
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

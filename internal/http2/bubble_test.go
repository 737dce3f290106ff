//go:build goexperiment.synctest

package http2

import (
	"testing"
	"testing/synctest"
	"time"
)

// bubble runs f in a synctest bubble, where time.Now reads a clock
// that a time.Sleep moves on exactly once every goroutine in the
// bubble is blocked: the abuse ledger's sliding windows are stepped by
// sleeping, at no wall time. internal/tier's TestVirtualTime runs these
// tests in plain `go test ./...`.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestBubbleAbuseLedgerWindowReset: counters decay across sliding windows —
// an old burst must not poison the budget forever.
func TestBubbleAbuseLedgerWindowReset(t *testing.T) {
	bubble(t, func(t *testing.T) {
		l := new(abuseLedger)

		for i := 0; i < 150; i++ {
			l.note(AbuseRapidReset)
		}
		if act := l.note(AbuseRapidReset); act != AbuseIgnore {
			t.Fatalf("over budget action %v, want ignore", act)
		}
		// Two full windows later both buckets have expired.
		time.Sleep(20 * time.Second)
		if act := l.note(AbuseRapidReset); act != AbuseNone {
			t.Fatalf("after 2 windows action %v, want none", act)
		}

		// One window later the old bucket still weighs in, scaled by the
		// remaining overlap: right at the window boundary it counts fully.
		for i := 0; i < 150; i++ {
			l.note(AbuseRapidReset)
		}
		time.Sleep(10 * time.Second)
		if act := l.note(AbuseRapidReset); act == AbuseNone {
			t.Fatal("previous bucket ignored immediately after window slide")
		}
		// Near the end of the next window the overlap has decayed away.
		time.Sleep(9 * time.Second)
		if act := l.note(AbuseRapidReset); act != AbuseNone {
			t.Fatalf("decayed bucket still scoring: %v", act)
		}
	})
}

// TestBubbleAbuseLedgerBurstyLegit: a client that stays below budget every
// window never escalates, however long it keeps going.
func TestBubbleAbuseLedgerBurstyLegit(t *testing.T) {
	bubble(t, func(t *testing.T) {
		l := new(abuseLedger)

		for window := 0; window < 10; window++ {
			for i := 0; i < 40; i++ {
				if act := l.note(AbuseRapidReset); act != AbuseNone {
					t.Fatalf("window %d event %d: action %v", window, i, act)
				}
			}
			time.Sleep(10 * time.Second)
		}
		if _, flagged := l.flagged(); flagged {
			t.Fatal("bursty-legit connection got flagged")
		}
	})
}

// TestBubbleWindowUpdateBudgetEarnedByDataSent: the ledger's WINDOW_UPDATE
// budget must scale with the DATA frames sent to the peer — a
// receiver acking delivered data is the protocol working, not a
// flood. Regression: with a fixed budget, a fast client on a
// long-lived connection crossed it, the server dropped its
// connection-level WINDOW_UPDATEs, the send window leaked away, and
// the connection deadlocked.
func TestBubbleWindowUpdateBudgetEarnedByDataSent(t *testing.T) {
	bubble(t, func(t *testing.T) {
		// Idle connection: the fixed floor still catches a flood.
		idle := new(abuseLedger)
		for i := 0; i < 4000; i++ {
			if act := idle.note(AbuseWindowUpdateFlood); act != AbuseNone {
				t.Fatalf("update %d on idle conn: %v, want none", i+1, act)
			}
		}
		if act := idle.note(AbuseWindowUpdateFlood); act == AbuseNone {
			t.Fatal("4001st update on idle conn stayed within budget 4000")
		}

		// Busy connection: 100 DATA frames earn 200 updates of headroom.
		busy := new(abuseLedger)
		for i := 0; i < 100; i++ {
			busy.noteDataSent()
		}
		for i := 0; i < 4200; i++ {
			if act := busy.note(AbuseWindowUpdateFlood); act != AbuseNone {
				t.Fatalf("update %d with 100 DATA sent: %v, want none", i+1, act)
			}
		}

		// Earned credit expires with the sliding window.
		time.Sleep(25 * time.Second)
		for i := 0; i < 4000; i++ {
			busy.note(AbuseWindowUpdateFlood)
		}
		if act := busy.note(AbuseWindowUpdateFlood); act == AbuseNone {
			t.Fatal("stale DATA credit still raising the budget two windows later")
		}
	})
}

package http2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// wedgedWriter blocks every Write until released — a peer that
// stopped reading, as seen by the transport.
type wedgedWriter struct {
	release chan struct{}
}

func (w *wedgedWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// TestDrainWedgedWriterNoGoroutineLeak: drain used to spawn a helper
// goroutine that waited for the flush; against a wedged transport the
// helper never exited, leaking one goroutine per connection teardown.
// drain now selects on the run loop's completion channel and spawns
// nothing, so repeated drains of a wedged writer must not grow the
// goroutine count.
func TestDrainWedgedWriterNoGoroutineLeak(t *testing.T) {
	ww := &wedgedWriter{release: make(chan struct{})}
	w := newAsyncWriter(ww)
	if _, err := w.Write([]byte("stuck frame")); err != nil {
		t.Fatal(err)
	}
	w.close()

	// Let the run loop take the buffer and wedge in ww.Write.
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		w.drain(time.Millisecond)
	}
	after := runtime.NumGoroutine()
	// Only the (legitimately) wedged run loop remains; 50 drains must
	// not have parked 50 helpers. Slack absorbs unrelated runtime
	// goroutines coming and going.
	if after > before+5 {
		t.Fatalf("goroutines grew %d -> %d across 50 drains of a wedged writer", before, after)
	}

	close(ww.release)
	w.drain(time.Second)
	select {
	case <-w.flushed:
	default:
		t.Fatal("run loop did not exit after transport unwedged")
	}
}

// collectWriter records everything written, for stress verification.
// Only the run loop writes, but the checker reads after drain, so a
// mutex keeps the race detector satisfied.
type collectWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *collectWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *collectWriter) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Bytes()
}

// TestAsyncWriterConcurrentWriters hammers one writer from many
// goroutines with records of mixed sizes — a few bytes, a frame's
// worth, and one appended in two steps under a single hold of the lock,
// as a reply's frames are — and verifies every record arrives intact,
// contiguous, and in per-writer order. Run with -race this doubles as
// the data-race check for the buffer swap.
func TestAsyncWriterConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		records = 300
	)
	cw := &collectWriter{}
	w := newAsyncWriter(cw)

	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for seq := 0; seq < records; seq++ {
				payloadLen := [...]int{16, 4<<10 + 100, 512}[seq%3]
				rec := make([]byte, 12+payloadLen)
				binary.BigEndian.PutUint32(rec[0:], uint32(id))
				binary.BigEndian.PutUint32(rec[4:], uint32(seq))
				binary.BigEndian.PutUint32(rec[8:], uint32(payloadLen))
				for i := 12; i < len(rec); i++ {
					rec[i] = byte(id)
				}
				var err error
				if seq%3 == 2 {
					// Header, then payload: both must stay adjacent.
					if err = w.lock(); err == nil {
						w.buf = append(w.buf, rec[:12]...)
						w.buf = append(w.buf, rec[12:]...)
						w.unlock()
					}
				} else {
					_, err = w.Write(rec)
				}
				if err != nil {
					t.Errorf("writer %d seq %d: %v", id, seq, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	w.close()
	w.drain(5 * time.Second)

	data := cw.bytes()
	nextSeq := make([]uint32, writers)
	parsed := 0
	for off := 0; off < len(data); {
		if len(data)-off < 12 {
			t.Fatalf("truncated record header at offset %d", off)
		}
		id := binary.BigEndian.Uint32(data[off:])
		seq := binary.BigEndian.Uint32(data[off+4:])
		plen := binary.BigEndian.Uint32(data[off+8:])
		if id >= writers {
			t.Fatalf("corrupt record id %d at offset %d", id, off)
		}
		if seq != nextSeq[id] {
			t.Fatalf("writer %d: seq %d arrived, want %d (reordering within one writer)", id, seq, nextSeq[id])
		}
		nextSeq[id]++
		body := data[off+12 : off+12+int(plen)]
		for i, b := range body {
			if b != byte(id) {
				t.Fatalf("writer %d seq %d: payload byte %d is %#x, want %#x (interleaved write)", id, seq, i, b, byte(id))
			}
		}
		off += 12 + int(plen)
		parsed++
	}
	if parsed != writers*records {
		t.Fatalf("parsed %d records, want %d", parsed, writers*records)
	}
}

// TestWindowUpdateBudgetEarnedByDataSent: the ledger's WINDOW_UPDATE
// budget must scale with the DATA frames sent to the peer — a
// receiver acking delivered data is the protocol working, not a
// flood. Regression: with a fixed budget, a fast client on a
// long-lived connection crossed it, the server dropped its
// connection-level WINDOW_UPDATEs, the send window leaked away, and
// the connection deadlocked.
func TestWindowUpdateBudgetEarnedByDataSent(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	policy := &AbusePolicy{Window: 10 * time.Second, WindowUpdateBudget: 10, Clock: fc.now}

	// Idle connection: the fixed floor still catches a flood.
	idle := newAbuseLedger(policy)
	for i := 0; i < 10; i++ {
		if act := idle.note(AbuseWindowUpdateFlood); act != AbuseNone {
			t.Fatalf("update %d on idle conn: %v, want none", i+1, act)
		}
	}
	if act := idle.note(AbuseWindowUpdateFlood); act == AbuseNone {
		t.Fatal("11th update on idle conn stayed within budget 10")
	}

	// Busy connection: 100 DATA frames earn 200 updates of headroom.
	busy := newAbuseLedger(policy)
	for i := 0; i < 100; i++ {
		busy.noteDataSent()
	}
	for i := 0; i < 200; i++ {
		if act := busy.note(AbuseWindowUpdateFlood); act != AbuseNone {
			t.Fatalf("update %d with 100 DATA sent: %v, want none", i+1, act)
		}
	}

	// Earned credit expires with the sliding window.
	fc.advance(25 * time.Second)
	for i := 0; i < 10; i++ {
		busy.note(AbuseWindowUpdateFlood)
	}
	if act := busy.note(AbuseWindowUpdateFlood); act == AbuseNone {
		t.Fatal("stale DATA credit still raising the budget two windows later")
	}
}

// TestFastTransferManyRequestsNoStall drives enough requests through
// one connection that the client's WINDOW_UPDATE count far exceeds a
// small fixed budget. Before DATA-earned credit, the server dropped
// the updates, leaked its 64 KiB connection send window, and wedged
// mid-response; the test then times out.
func TestFastTransferManyRequestsNoStall(t *testing.T) {
	body := strings.Repeat("x", 8<<10)
	cc, _ := startPair(t,
		Config{AbusePolicy: &AbusePolicy{WindowUpdateBudget: 4}},
		Config{},
		HandlerFunc(func(w *ResponseWriter, r *Request) {
			w.WriteHeaders(200)
			fmt.Fprint(w, body)
		}))

	done := make(chan error, 1)
	go func() {
		// 60 × 8 KiB crosses the 32 KiB conn-update threshold ~15
		// times — far over budget 4.
		for i := 0; i < 60; i++ {
			resp, err := cc.Get("/bulk")
			if err != nil {
				done <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			got, err := ReadAllBody(resp)
			if err != nil {
				done <- fmt.Errorf("request %d body: %v", i, err)
				return
			}
			if len(got) != len(body) {
				done <- fmt.Errorf("request %d: %d bytes, want %d", i, len(got), len(body))
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("transfer stalled: send window leaked by dropped WINDOW_UPDATEs")
	}
}

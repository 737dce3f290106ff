package overload

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

func TestPoolFIFOAndDeadline(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A queued waiter beyond its deadline is shed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want deadline exceeded", err)
	}
	if in, wait := p.Load(); in != 1 || wait != 0 {
		t.Fatalf("after timeout: inflight %d waiting %d", in, wait)
	}

	// FIFO: the first queued waiter is granted first.
	order := make(chan int, 2)
	var ready sync.WaitGroup
	ready.Add(1)
	go func() {
		ready.Done()
		p.Acquire(context.Background())
		order <- 1
	}()
	ready.Wait()
	time.Sleep(10 * time.Millisecond) // let waiter 1 enqueue first
	go func() {
		p.Acquire(context.Background())
		order <- 2
	}()
	time.Sleep(10 * time.Millisecond)
	p.Release()
	if got := <-order; got != 1 {
		t.Fatalf("first grant went to waiter %d", got)
	}
	p.Release()
	if got := <-order; got != 2 {
		t.Fatalf("second grant went to waiter %d", got)
	}
	p.Release()
	if in, wait := p.Load(); in != 0 || wait != 0 {
		t.Fatalf("drained pool: inflight %d waiting %d", in, wait)
	}
}

func TestPoolSlotNotLeakedOnLateGrant(t *testing.T) {
	p := NewPool(1)
	if !p.TryAcquire() {
		t.Fatal("fresh pool has no slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	// Release and cancel race; whatever the waiter observes, the slot
	// must end up usable.
	cancel()
	p.Release()
	err := <-done
	if err != nil {
		// The waiter gave up; the slot must be free for others.
		if !p.TryAcquire() {
			t.Fatal("slot leaked after cancelled acquire")
		}
	}
	p.Release()
}

func TestSingleflightCoalesces(t *testing.T) {
	var g Group
	var runs atomic.Int32
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do("page", func() (any, error) {
				runs.Add(1)
				<-release
				return "html", nil
			})
			if err != nil || v.(string) != "html" {
				t.Errorf("Do = %v, %v", v, err)
			}
			shared[i] = sh
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nshared := 0
	for _, sh := range shared {
		if sh {
			nshared++
		}
	}
	if nshared != n-1 {
		t.Fatalf("shared count %d, want %d", nshared, n-1)
	}
	// After completion the key is forgotten: a new Do runs again.
	_, _, sh := g.Do("page", func() (any, error) { return "again", nil })
	if sh {
		t.Fatal("post-completion Do reported shared")
	}
}

// TestSingleflightJoinedCallKept: a finished call serves the key's next
// execution only if no caller joined it. A caller that joined call 1
// reads call 1's value even when the leader has run call 2 on the same
// key before that caller woke. On one P the woken caller waits for the
// leader to block, so the leader runs call 2 first; a call reused
// despite its join would hand the joined caller call 2's value.
func TestSingleflightJoinedCallKept(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var g Group
	joins := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		if c := g.m["page"]; c != nil {
			return c.joins
		}
		return 0
	}
	started := make(chan struct{})
	got := make(chan any)
	go func() {
		<-started
		v, _, shared := g.Do("page", func() (any, error) { return "joiner ran", nil })
		if !shared {
			t.Error("the joining caller ran its own call")
		}
		got <- v
	}()
	g.Do("page", func() (any, error) {
		close(started)
		for joins() == 0 {
			runtime.Gosched()
		}
		return "call 1", nil
	})
	if v, _, shared := g.Do("page", func() (any, error) { return "call 2", nil }); shared || v != "call 2" {
		t.Fatalf("call 2 = %v, shared %v", v, shared)
	}
	if v := <-got; v != "call 1" {
		t.Fatalf("the caller that joined call 1 read %v", v)
	}
}

// are collectable once the callback has run.
// TestByteLRUEvictedValueCollectable: the evicted entry that the next
// insert reuses keeps neither the value nor the key it held, so both
// are collectable once the callback has run.
func TestByteLRUEvictedValueCollectable(t *testing.T) {
	l := NewByteLRU(1)
	var seen *[64]byte
	l.SetOnEvict(func(_ string, v any, _ int64) { seen = v.(*[64]byte) })
	gone := new([64]byte)
	wp := weak.Make(gone)
	l.Add("gone", gone, 1)
	l.Add("next", new([64]byte), 1) // evicts gone
	if seen != gone {
		t.Fatal("the callback did not hear the evicted value")
	}
	seen, gone = nil, nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("an evicted value is still reachable from the cache")
	}
	runtime.KeepAlive(l)
}

func TestByteLRUEviction(t *testing.T) {
	var evicted []string
	l := NewByteLRU(100)
	l.SetOnEvict(func(key string, _ any, _ int64) { evicted = append(evicted, key) })

	l.Add("a", "A", 40)
	l.Add("b", "B", 40)
	if n := l.Add("c", "C", 40); n != 1 {
		t.Fatalf("third add evicted %d entries, want 1", n)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	// Promotion: touching b makes c the eviction victim.
	if _, ok := l.Get("b"); !ok {
		t.Fatal("b missing")
	}
	l.Add("d", "D", 40)
	if len(evicted) != 2 || evicted[1] != "c" {
		t.Fatalf("evicted %v, want [a c]", evicted)
	}
	// GetBytes is Get for a key held as bytes: it finds and promotes b,
	// so d is the next victim.
	if v, ok := l.GetBytes([]byte("b")); !ok || v != "B" {
		t.Fatalf("GetBytes(b) = %v, %v", v, ok)
	}
	if _, ok := l.GetBytes([]byte("c")); ok {
		t.Fatal("GetBytes found an evicted key")
	}
	l.Add("e", "E", 40)
	if len(evicted) != 3 || evicted[2] != "d" {
		t.Fatalf("evicted %v, want [a c d]", evicted)
	}
	if l.Bytes() != 80 || l.Len() != 2 {
		t.Fatalf("size %d len %d", l.Bytes(), l.Len())
	}
	// Oversized entry: admitted then immediately evicted, after the
	// entries older than it, oldest first; the cap holds.
	if n := l.Add("huge", "H", 1000); n != 3 {
		t.Fatalf("oversized add evicted %d entries, want 3", n)
	}
	if got := strings.Join(evicted[3:], " "); got != "b e huge" {
		t.Fatalf("oversized add evicted %q, want \"b e huge\"", got)
	}
	if _, ok := l.Peek("huge"); ok {
		t.Fatal("oversized entry stayed cached")
	}
	if l.Bytes() > 100 {
		t.Fatalf("cache over cap: %d", l.Bytes())
	}
	// Remove does not fire the callback.
	before := len(evicted)
	l.Remove("b")
	if len(evicted) != before {
		t.Fatal("Remove fired the eviction callback")
	}
	// RemoveBytes is Remove for a key held as bytes: it drops the entry
	// and its bytes, reports whether the key was cached, and fires no
	// callback either.
	l.Add("f", "F", 30)
	l.Add("g", "G", 30)
	if !l.RemoveBytes([]byte("f")) || l.RemoveBytes([]byte("f")) || l.RemoveBytes([]byte("x")) {
		t.Fatal("RemoveBytes must report true once for a cached key, then false")
	}
	if _, ok := l.Peek("f"); ok || l.Len() != 1 || l.Bytes() != 30 {
		t.Fatalf("after RemoveBytes(f): len %d size %d", l.Len(), l.Bytes())
	}
	if _, ok := l.Peek("g"); !ok || len(evicted) != before {
		t.Fatalf("RemoveBytes touched g or fired the callback: evicted %v", evicted)
	}
}

func TestGuardShedDoesNotFeedBreaker(t *testing.T) {
	g := NewGuard(Config{
		MaxGenWorkers: 1,
		QueueDeadline: 5 * time.Millisecond,
		AdmitRPS:      1000,
		AdmitBurst:    1000,
	})
	rel, err := g.AdmitGen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A threshold's worth of queue timeouts while the worker is held
	// must not trip the breaker: sheds are not backend failures.
	for i := 0; i < breakerFailures; i++ {
		if _, err := g.AdmitGen(context.Background()); err == nil {
			t.Fatal("expected queue-timeout shed")
		}
	}
	if g.Breaker().State() != BreakerClosed {
		t.Fatal("shed requests tripped the breaker")
	}
	rel(true)
}

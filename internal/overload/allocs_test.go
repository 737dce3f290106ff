//go:build !race

package overload

import (
	"context"
	"testing"
)

// TestAdmitGenAllocs: a request that finds a worker free builds no
// queue-deadline context and no timer; all it costs is the release
// callback it is handed. (The race detector's instrumentation
// allocates; hence the build tag.)
func TestAdmitGenAllocs(t *testing.T) {
	g := NewGuard(Config{MaxGenWorkers: 1})
	ctx, cancel := context.WithCancel(context.Background()) // a cancelable parent, like a stream's
	defer cancel()
	allocs := testing.AllocsPerRun(100, func() {
		release, err := g.AdmitGen(ctx)
		if err != nil {
			t.Fatal(err)
		}
		release(true)
	})
	if allocs > 1 {
		t.Fatalf("AdmitGen with a free worker: %v allocs, want at most 1 (the release callback)", allocs)
	}
}

// TestByteLRUAddAllocs: an insert that evicts allocates nothing — the
// recency list is threaded through the entries, the evicted ones are
// handed to the callback through the same links, and the last of them
// is the next insert's entry (1 while every insert made its entry).
func TestByteLRUAddAllocs(t *testing.T) {
	l := NewByteLRU(4)
	l.SetOnEvict(func(string, any, int64) {})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var value any = keys // boxed once, outside the count
	for _, k := range keys {
		l.Add(k, value, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		l.Add(keys[i%len(keys)], value, 1) // each add evicts the oldest of four
		i++
	})
	if allocs != 0 {
		t.Fatalf("ByteLRU.Add with an eviction: %v allocs, want 0", allocs)
	}
}

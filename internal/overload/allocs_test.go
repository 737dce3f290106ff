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

//go:build goexperiment.synctest

package tier

import (
	"context"
	"testing"
	"testing/synctest"
	"time"

	"sww/internal/cdn"
	"sww/internal/workload"
)

// bubble runs f in a synctest bubble: every goroutine f starts reads a
// fake clock that jumps ahead whenever all of them are blocked, so the
// tier's timeouts, polls and heartbeats cost no wall time. A toolchain
// with synctest.Test switches by calling it here instead.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestBubbleInvalidateAndPromote converges one invalidation on a mesh
// of three edges, then loses the primary and waits for the standby to
// promote, all on virtual time.
func TestBubbleInvalidateAndPromote(t *testing.T) {
	bubble(t, func(t *testing.T) {
		start := time.Now()
		names := []string{"edge1", "edge2", "edge3"}
		tr, err := New(Options{Edges: names, Mesh: true, Standby: true})
		if err != nil {
			t.Fatal(err)
		}
		// Deferred so that a Fatal still stops every goroutine in the
		// bubble, which synctest.Run waits for.
		defer tr.Close()
		ctx := context.Background()
		for _, name := range names {
			tr.Edge(name).Start()
			tr.Subscribe(name, 0)
		}
		ec := tr.EdgeClient()
		for i := 0; i < Pages; i++ {
			if _, _, err := ec.FetchContext(ctx, workload.CDNPagePath(i)); err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
		}
		tr.Primary().Invalidate([]string{workload.CDNPagePath(0)})
		if err := WaitUntil(ctx, "every edge at the primary's seq", func() bool {
			for _, name := range names {
				if tr.Edge(name).LastSeq() != tr.Primary().Seq() {
					return false
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		tr.KillPrimary()
		if err := WaitUntil(ctx, "standby promotion", func() bool {
			return tr.StandbyOrigin.Role() == cdn.RolePrimary
		}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%v of virtual time", time.Since(start))
	})
}

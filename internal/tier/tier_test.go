package tier

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sww/internal/cdn"
	"sww/internal/workload"
)

// TestCloseReturnsGoroutines boots everything the harness can boot,
// drives every kind of link and both restarts, and checks Close takes
// the goroutine count back to where it was: a leak here would compound
// across the ~50 topologies the scenario tests boot in one process.
func TestCloseReturnsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	names := []string{"edge1", "edge2", "edge3"}
	tr, err := New(Options{
		Edges: names, Mesh: true, Snapshots: true, Durable: true, Standby: true,
		Edge: func(c *cdn.EdgeConfig) {
			c.PollInterval = 5 * time.Millisecond
			c.Heartbeat = 5 * time.Millisecond
			c.SnapshotInterval = 5 * time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, name := range names {
		tr.Edge(name).Start()
		tr.Subscribe(name, 0)
	}
	ec := tr.EdgeClient()
	rc := tr.Client("edge1")
	for i := 0; i < Pages; i++ {
		if _, _, err := ec.FetchContext(ctx, workload.CDNPagePath(i)); err != nil {
			t.Fatalf("ring fetch %d: %v", i, err)
		}
		if raw, err := rc.FetchRawContext(ctx, workload.CDNPagePath(i)); err != nil || raw.Status != 200 {
			t.Fatalf("pinned fetch %d: %v", i, err)
		}
	}
	tr.Primary().Invalidate([]string{workload.CDNPagePath(0)})
	if err := WaitUntil(ctx, "push or poll to land", func() bool {
		return tr.Edge("edge1").LastSeq() == tr.Primary().Seq()
	}); err != nil {
		t.Fatal(err)
	}

	if err := tr.KillEdge("edge2"); err != nil {
		t.Fatal(err)
	}
	if got := tr.RebootEdge("edge2").Stats().SnapshotLoaded; got == 0 {
		t.Error("rebooted edge found no snapshot")
	}
	seq := tr.Primary().Seq()
	tr.KillPrimary()
	if err := WaitUntil(ctx, "standby promotion", func() bool {
		return tr.StandbyOrigin.Role() == cdn.RolePrimary
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Primary().Seq(); got != seq {
		t.Errorf("restarted primary at seq %d, want %d", got, seq)
	}
	if raw, err := tr.Fetch(ctx, "edge3", workload.CDNPagePath(1)); err != nil || raw.Status != 200 {
		t.Fatalf("fetch after the restarts: %v", err)
	}

	tr.Close()
	// Connection teardown finishes a moment after Close returns.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before New\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeverOriginCutsEveryLink: SeverOrigin takes down every edge's Up
// and Push link, so neither polls nor pushes cross the partition, and
// HealOrigin brings them back, except the Push link of an edge that
// KillEdge took down, which stays down until RebootEdge.
func TestSeverOriginCutsEveryLink(t *testing.T) {
	tr, err := New(Options{Edges: []string{"edge1", "edge2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.KillEdge("edge2"); err != nil {
		t.Fatal(err)
	}
	tr.SeverOrigin()
	for _, name := range []string{"edge1", "edge2"} {
		if l := tr.Link(name); !l.Up.Down() || !l.Push.Down() {
			t.Errorf("%s after SeverOrigin: Up down %v, Push down %v; want both down", name, l.Up.Down(), l.Push.Down())
		}
	}
	tr.HealOrigin()
	for name, wantPushDown := range map[string]bool{"edge1": false, "edge2": true} {
		if l := tr.Link(name); l.Up.Down() || l.Push.Down() != wantPushDown {
			t.Errorf("%s after HealOrigin: Up down %v, Push down %v; want Up up, Push down %v", name, l.Up.Down(), l.Push.Down(), wantPushDown)
		}
	}
	tr.RebootEdge("edge2")
	if tr.Link("edge2").Push.Down() {
		t.Error("edge2's Push link still down after RebootEdge")
	}
}

//go:build !race

package core

import (
	"context"
	"testing"

	"sww/internal/http2"
)

// TestBeginRequestTelemetryOffAllocs: with no telemetry attached every
// trace call is a nil no-op, and opening a request must not build the
// strings those calls would have recorded. (The race detector's
// instrumentation allocates; hence the build tag.)
func TestBeginRequestTelemetryOffAllocs(t *testing.T) {
	srv, err := NewServer("", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		rctx, tr, _ := srv.beginRequest(ctx, "h2", "/page", http2.GenFull|http2.GenUpscaleOnly)
		if tr != nil || rctx != ctx {
			t.Fatal("telemetry is off, yet beginRequest opened a trace")
		}
	})
	if allocs != 0 {
		t.Fatalf("beginRequest with telemetry off: %v allocs, want 0", allocs)
	}
}

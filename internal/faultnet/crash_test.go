package faultnet_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/faultnet"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/workload"
)

// TestCrashLoudAndSilent walks one link through both ways of going
// down. Killed: live connections die and the next dial errors at once.
// Severed: live connections die, the next dial "succeeds" into a conn
// whose handshake never completes, so only the attempt timeout escapes.
// Restart heals either.
func TestCrashLoudAndSilent(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.CDNPage(0))
	var link faultnet.Crash
	dial := link.Wrap(func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	})
	const attempt = 40 * time.Millisecond
	rc := core.NewResilientClient(dial, device.Workstation, nil,
		core.RetryPolicy{MaxAttempts: 1, AttemptTimeout: attempt})
	defer rc.Close()
	ctx := context.Background()
	fetch := func() error {
		_, err := rc.FetchRawContext(ctx, workload.CDNPagePath(0))
		return err
	}

	if err := fetch(); err != nil {
		t.Fatalf("healthy fetch: %v", err)
	}
	for _, tc := range []struct {
		name   string
		down   func()
		silent bool
	}{
		{"kill", link.Kill, false},
		{"sever", link.Sever, true},
	} {
		tc.down()
		if !link.Down() {
			t.Fatalf("%s: link not down", tc.name)
		}
		// The connection the client holds from before the fault is dead,
		// loudly in both modes.
		if err := fetch(); err == nil {
			t.Fatalf("%s: live conn survived", tc.name)
		}
		// The redial is where the modes differ.
		rc.Close()
		start := time.Now()
		err := fetch()
		took := time.Since(start)
		if err == nil {
			t.Fatalf("%s: fetch through a downed link succeeded", tc.name)
		}
		if tc.silent {
			// Nothing errors by itself: the attempt timeout is what
			// unsticks the caller, and it says so.
			if took < attempt || !strings.Contains(err.Error(), "connect aborted") {
				t.Fatalf("sever: fetch failed after %v with %v, want the %v attempt timeout", took, err, attempt)
			}
		} else if !errors.Is(err, faultnet.ErrCrashed) {
			t.Fatalf("kill: fetch error %v, want ErrCrashed", err)
		}

		link.Restart()
		if err := fetch(); err != nil {
			t.Fatalf("%s: fetch after restart: %v", tc.name, err)
		}
	}
	if got := link.Kills(); got != 2 {
		t.Fatalf("kills = %d, want 2", got)
	}
}

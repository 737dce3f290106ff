package cdn

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package if its tests leave goroutines behind:
// every edge, origin, pusher, poller and connection a test starts must
// be gone once the test has closed it.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	// Under -fuzz the fuzzing engine keeps goroutines of its own (its
	// signal handler); the targets' seeds run in plain go test too.
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		// Connection teardown finishes a moment after Close returns.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%d goroutines after the tests, %d before\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

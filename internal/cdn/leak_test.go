package cdn

import (
	"testing"

	"sww/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines behind:
// every edge, origin, pusher, poller and connection a test starts must
// be gone once the test has closed it.
func TestMain(m *testing.M) { leakcheck.Main(m) }

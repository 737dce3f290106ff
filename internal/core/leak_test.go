package core

import (
	"testing"

	"sww/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines behind:
// every server, client, connection and generation a test starts must
// be gone once the test has closed what it started.
func TestMain(m *testing.M) { leakcheck.Main(m) }

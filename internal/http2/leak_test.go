package http2

import (
	"testing"

	"sww/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines behind:
// every connection, reader, writer and handler goroutine a test starts
// must be gone once the test has closed its connections.
func TestMain(m *testing.M) { leakcheck.Main(m) }

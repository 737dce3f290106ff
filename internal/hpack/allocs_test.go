//go:build !race

package hpack

import "testing"

// TestDecodeAppendSteadyStateAllocs pins the decode half of the wire
// fast path: a fully indexed block decoded into a reused list allocates
// nothing. (The race detector's instrumentation allocates; hence the
// build tag.)
func TestDecodeAppendSteadyStateAllocs(t *testing.T) {
	dec, block := warmResponseBlock(t)
	fields := make([]HeaderField, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if fields, err = dec.DecodeAppend(fields[:0], block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeAppend of a fully indexed block into a reused list: %v allocs, want 0", allocs)
	}
	if len(fields) != 4 || fields[3].Value != "generative" {
		t.Fatalf("decoded %v", fields)
	}
}

// TestAppendResponseBlockAllocs pins the encode half: a warm response
// block costs the slice it is encoded into and nothing else.
func TestAppendResponseBlockAllocs(t *testing.T) {
	enc := NewEncoder()
	appendResponseBlock(enc) // fills the dynamic table
	if allocs := testing.AllocsPerRun(100, func() { appendResponseBlock(enc) }); allocs > 1 {
		t.Fatalf("encoding a warm response block: %v allocs, want at most 1", allocs)
	}
}

package hpack

import "testing"

// BenchmarkHPACKEncode measures one response header block the way
// the h2 server emits it: assemble the per-response field list, then
// encode it. The field values repeat across iterations, so after the
// first op the dynamic table serves indexed entries — the steady
// state of a warm serve loop. The block is its one allocation
// (TestAppendResponseBlockAllocs).
func BenchmarkHPACKEncode(b *testing.B) {
	enc := NewEncoder()
	var block []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block = appendResponseBlock(enc)
	}
	_ = block
}

// appendResponseBlock encodes the response header block of a warm
// fetch into a fresh slice.
func appendResponseBlock(enc *Encoder) []byte {
	fields := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "content-type", Value: "text/html; charset=utf-8"},
		{Name: "content-length", Value: "20210"},
		{Name: "x-sww-mode", Value: "generative"},
	}
	return enc.AppendFields(nil, fields)
}

// warmResponseBlock returns a decoder that has already seen the
// response header block once, and the block as the encoder emits it
// from then on: every field an index into the dynamic table — the
// steady state of a warm fetch loop.
func warmResponseBlock(tb testing.TB) (*Decoder, []byte) {
	enc, dec := NewEncoder(), NewDecoder(0)
	if _, err := dec.Decode(appendResponseBlock(enc)); err != nil {
		tb.Fatal(err)
	}
	block := appendResponseBlock(enc)
	if len(block) != 4 {
		tb.Fatalf("steady-state block is %d bytes for 4 fields, want one index each", len(block))
	}
	return dec, block
}

// BenchmarkHPACKDecode measures one response header block the way the
// h2 read loop decodes it: into a list it reuses across blocks.
func BenchmarkHPACKDecode(b *testing.B) {
	dec, block := warmResponseBlock(b)
	var fields []HeaderField
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if fields, err = dec.DecodeAppend(fields[:0], block); err != nil {
			b.Fatal(err)
		}
	}
	_ = fields
}

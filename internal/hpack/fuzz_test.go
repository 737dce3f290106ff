package hpack

// FuzzHPACKDecode feeds arbitrary header blocks to the decoder and
// enforces its safety contracts: no panic, decoded output bounded by
// the header-list ceiling regardless of the amplification the input
// encodes, and DecodeAppend agreeing with Decode without touching the
// list it appends to. Seed corpus in testdata/fuzz/FuzzHPACKDecode.

import (
	"slices"
	"strings"
	"testing"
)

func FuzzHPACKDecode(f *testing.F) {
	// An honest encoded block.
	enc := NewEncoder()
	f.Add(enc.AppendFields(nil, []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/load/page-001"},
		{Name: "accept", Value: "text/html"},
	}))
	// The decompression-bomb prefix: one big literal then indexed refs.
	bomb := appendInteger(nil, 0x40, 6, 0)
	bomb = appendString(bomb, "x-bomb", false)
	bomb = appendString(bomb, strings.Repeat("a", 2000), false)
	for i := 0; i < 64; i++ {
		bomb = append(bomb, appendInteger(nil, 0x80, 7, uint64(staticTableLen)+1)...)
	}
	f.Add(bomb)
	// A Huffman literal and a table-size-update churn block.
	lit := appendInteger(nil, 0x00, 4, 0)
	lit = appendString(lit, "n", false)
	raw := AppendHuffman(nil, strings.Repeat("0", 300))
	lit = appendInteger(lit, 0x80, 7, uint64(len(raw)))
	f.Add(append(lit, raw...))
	churn := appendInteger(nil, 0x20, 5, 0)
	churn = appendInteger(churn, 0x20, 5, 4096)
	churn = appendInteger(churn, 0x20, 5, 0)
	f.Add(churn)
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff"))

	const listCap = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(4096)
		d.SetMaxHeaderListBytes(listCap)
		fields, err := d.Decode(data)

		// DecodeAppend(prefix, b) ≡ append(prefix, Decode(b)...): same
		// fields, same error, same dynamic table afterwards, and the
		// prefix — which has room to be appended to in place — intact.
		prefix := append(make([]HeaderField, 0, 8), HeaderField{Name: "kept", Value: "1"}, HeaderField{Name: "kept", Value: "2", Sensitive: true})
		want := append(append([]HeaderField(nil), prefix...), fields...)
		d2 := NewDecoder(4096)
		d2.SetMaxHeaderListBytes(listCap)
		got, err2 := d2.DecodeAppend(prefix, data)
		if err2 != err {
			t.Fatalf("DecodeAppend error %v, Decode error %v", err2, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("DecodeAppend = %v, want %v", got, want)
		}
		if !slices.Equal(prefix, want[:len(prefix)]) {
			t.Fatalf("DecodeAppend overwrote its prefix: %v", prefix)
		}
		if d2.DynamicTableSize() != d.DynamicTableSize() {
			t.Fatalf("dynamic table %d bytes after DecodeAppend, %d after Decode", d2.DynamicTableSize(), d.DynamicTableSize())
		}
		if err != nil {
			return
		}
		total := 0
		for _, hf := range fields {
			total += int(hf.Size())
		}
		if total > listCap {
			t.Fatalf("decoded %d header-list bytes from %d input bytes, cap %d",
				total, len(data), listCap)
		}
	})
}

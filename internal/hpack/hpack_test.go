package hpack

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntegerRoundTrip(t *testing.T) {
	cases := []struct {
		prefix uint8
		v      uint64
	}{
		{5, 10}, {5, 31}, {5, 32}, {5, 1337}, {7, 0}, {7, 127}, {7, 128},
		{8, 255}, {8, 256}, {1, 0}, {1, 1}, {1, 500}, {6, 1 << 31},
	}
	for _, c := range cases {
		buf := appendInteger(nil, 0, c.prefix, c.v)
		got, rest, err := readInteger(buf, c.prefix)
		if err != nil {
			t.Fatalf("prefix=%d v=%d: %v", c.prefix, c.v, err)
		}
		if got != c.v || len(rest) != 0 {
			t.Errorf("prefix=%d: got %d (rest %d), want %d", c.prefix, got, len(rest), c.v)
		}
	}
}

// TestIntegerRFCExamples checks the worked examples of RFC 7541 §C.1.
func TestIntegerRFCExamples(t *testing.T) {
	// C.1.1: 10 with 5-bit prefix => 0b01010.
	if got := appendInteger(nil, 0, 5, 10); !bytes.Equal(got, []byte{0x0a}) {
		t.Errorf("encode 10/5 = %x, want 0a", got)
	}
	// C.1.2: 1337 with 5-bit prefix => 1f 9a 0a.
	if got := appendInteger(nil, 0, 5, 1337); !bytes.Equal(got, []byte{0x1f, 0x9a, 0x0a}) {
		t.Errorf("encode 1337/5 = %x, want 1f9a0a", got)
	}
	// C.1.3: 42 with 8-bit prefix => 2a.
	if got := appendInteger(nil, 0, 8, 42); !bytes.Equal(got, []byte{0x2a}) {
		t.Errorf("encode 42/8 = %x, want 2a", got)
	}
}

func TestIntegerProperty(t *testing.T) {
	f := func(v uint32, p uint8) bool {
		prefix := p%8 + 1
		buf := appendInteger(nil, 0, prefix, uint64(v))
		got, rest, err := readInteger(buf, prefix)
		return err == nil && got == uint64(v) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntegerErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty buf", nil, ErrTruncated},
		{"unterminated", []byte{0x1f, 0x80, 0x80}, ErrTruncated},
		{"overflow", []byte{0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, ErrIntegerOverflow},
		// Zero continuation bytes never raise the value, so only the
		// shift bound stops them: ten take the shift past 63.
		{"overlong zero continuations", append(append([]byte{0x1f}, bytes.Repeat([]byte{0x80}, 10)...), 0x00), ErrIntegerOverflow},
	} {
		if _, _, err := readInteger(tc.buf, 5); err != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestHuffmanRFCVectors checks the Huffman table against the encoded
// strings that appear in RFC 7541 Appendix C.
func TestHuffmanRFCVectors(t *testing.T) {
	vectors := []struct {
		s   string
		hex string
	}{
		{"www.example.com", "f1e3c2e5f23a6ba0ab90f4ff"},
		{"no-cache", "a8eb10649cbf"},
		{"custom-key", "25a849e95ba97d7f"},
		{"custom-value", "25a849e95bb8e8b4bf"},
		{"302", "6402"},
		{"private", "aec3771a4b"},
		{"Mon, 21 Oct 2013 20:13:21 GMT", "d07abe941054d444a8200595040b8166e082a62d1bff"},
		{"https://www.example.com", "9d29ad171863c78f0b97c8e9ae82ae43d3"},
		{"307", "640eff"},
		{"gzip", "9bd9ab"},
	}
	for _, v := range vectors {
		want, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendHuffman(nil, v.s)
		if !bytes.Equal(got, want) {
			t.Errorf("encode(%q) = %x, want %x", v.s, got, want)
		}
		dec, err := DecodeHuffman(nil, want)
		if err != nil {
			t.Fatalf("decode(%q): %v", v.s, err)
		}
		if string(dec) != v.s {
			t.Errorf("decode(%x) = %q, want %q", want, dec, v.s)
		}
	}
}

func TestHuffmanRoundTripAllBytes(t *testing.T) {
	var all []byte
	for i := 0; i < 256; i++ {
		all = append(all, byte(i))
	}
	enc := AppendHuffman(nil, string(all))
	dec, err := DecodeHuffman(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, all) {
		t.Error("round trip over all byte values failed")
	}
}

func TestHuffmanProperty(t *testing.T) {
	f := func(b []byte) bool {
		enc := AppendHuffman(nil, string(b))
		dec, err := DecodeHuffman(nil, enc)
		return err == nil && bytes.Equal(dec, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHuffmanInvalidPadding pins RFC 7541 §5.2: padding is fewer than
// 8 bits of the EOS prefix, and EOS itself never appears.
func TestHuffmanInvalidPadding(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  []byte
	}{
		// '0' is 00000, so 0x00 pads with 000: not all ones.
		{"zero padding", []byte{0x00}},
		// 'a' is 00011: its own 3 ones of padding, then 8 more.
		{"11 bit padding", append(AppendHuffman(nil, "a"), 0xff)},
		// '&' is 11111000, a whole byte: 0xff is exactly 8 bits.
		{"8 bit padding", append(AppendHuffman(nil, "&"), 0xff)},
		// EOS (30 ones), then 'a', then 5 bits of padding.
		{"EOS inside", []byte{0xff, 0xff, 0xff, 0xfc, 0x7f}},
	} {
		if _, err := DecodeHuffman(nil, tc.src); err != ErrInvalidHuffman {
			t.Errorf("%s: %v, want ErrInvalidHuffman", tc.name, err)
		}
	}
}

func TestHuffmanEncodedLen(t *testing.T) {
	for _, s := range []string{"", "a", "www.example.com", "héllo\x00\xff"} {
		if got, want := HuffmanEncodedLen(s), len(AppendHuffman(nil, s)); got != want {
			t.Errorf("HuffmanEncodedLen(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestStaticTable(t *testing.T) {
	if staticTableLen != 61 {
		t.Fatalf("static table has %d entries, want 61", staticTableLen)
	}
	checks := map[uint64]HeaderField{
		1:  {Name: ":authority"},
		2:  {Name: ":method", Value: "GET"},
		8:  {Name: ":status", Value: "200"},
		31: {Name: "content-type"},
		61: {Name: "www-authenticate"},
	}
	var dyn dynamicTable
	for idx, want := range checks {
		got, err := tableEntry(&dyn, idx)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("entry %d = %+v, want %+v", idx, got, want)
		}
	}
	if _, err := tableEntry(&dyn, 62); err != ErrInvalidIndex {
		t.Errorf("index 62 with empty dynamic table: %v, want ErrInvalidIndex", err)
	}
	if _, err := tableEntry(&dyn, 0); err != ErrInvalidIndex {
		t.Errorf("index 0: %v, want ErrInvalidIndex", err)
	}
}

func TestDynamicTableEviction(t *testing.T) {
	dt := dynamicTable{maxSize: 100}
	a := HeaderField{Name: "aaaa", Value: "bbbb"} // size 40
	b := HeaderField{Name: "cccc", Value: "dddd"} // size 40
	c := HeaderField{Name: "eeee", Value: "ffff"} // size 40
	dt.add(a)
	dt.add(b)
	if dt.size != 80 || len(dt.entries) != 2 {
		t.Fatalf("size=%d n=%d, want 80/2", dt.size, len(dt.entries))
	}
	dt.add(c) // must evict a
	if dt.size != 80 || len(dt.entries) != 2 {
		t.Fatalf("after eviction size=%d n=%d, want 80/2", dt.size, len(dt.entries))
	}
	if got, _ := dt.at(1); got != c {
		t.Errorf("newest = %+v, want %+v", got, c)
	}
	if got, _ := dt.at(2); got != b {
		t.Errorf("second = %+v, want %+v", got, b)
	}
	// An entry bigger than the whole table clears it (§4.4).
	dt.add(HeaderField{Name: strings.Repeat("x", 200)})
	if dt.size != 0 || len(dt.entries) != 0 {
		t.Errorf("oversized add: size=%d n=%d, want empty", dt.size, len(dt.entries))
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeRFCAppendixC3 replays the three-request plain-literal
// sequence of RFC 7541 §C.3, checking dynamic table evolution.
func TestDecodeRFCAppendixC3(t *testing.T) {
	d := NewDecoder(0)

	got, err := d.Decode(mustHex(t, "8286 8441 0f77 7777 2e65 7861 6d70 6c65 2e63 6f6d"))
	if err != nil {
		t.Fatal(err)
	}
	want := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "http"},
		{Name: ":path", Value: "/"},
		{Name: ":authority", Value: "www.example.com"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request 1 = %v, want %v", got, want)
	}
	if d.DynamicTableSize() != 57 {
		t.Fatalf("table size after req 1 = %d, want 57", d.DynamicTableSize())
	}

	got, err = d.Decode(mustHex(t, "8286 84be 5808 6e6f 2d63 6163 6865"))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want[:3:3], HeaderField{Name: ":authority", Value: "www.example.com"},
		HeaderField{Name: "cache-control", Value: "no-cache"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request 2 = %v, want %v", got, want)
	}
	if d.DynamicTableSize() != 110 {
		t.Fatalf("table size after req 2 = %d, want 110", d.DynamicTableSize())
	}

	got, err = d.Decode(mustHex(t,
		"8287 85bf 400a 6375 7374 6f6d 2d6b 6579 0c63 7573 746f 6d2d 7661 6c75 65"))
	if err != nil {
		t.Fatal(err)
	}
	want = []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/index.html"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: "custom-key", Value: "custom-value"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request 3 = %v, want %v", got, want)
	}
	if d.DynamicTableSize() != 164 {
		t.Fatalf("table size after req 3 = %d, want 164", d.DynamicTableSize())
	}
}

// TestDecodeRFCAppendixC4 replays the Huffman-coded request sequence
// of RFC 7541 §C.4.
func TestDecodeRFCAppendixC4(t *testing.T) {
	d := NewDecoder(0)
	blocks := []string{
		"8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff",
		"8286 84be 5886 a8eb 1064 9cbf",
		"8287 85bf 4088 25a8 49e9 5ba9 7d7f 8925 a849 e95b b8e8 b4bf",
	}
	var last []HeaderField
	for i, blk := range blocks {
		var err error
		last, err = d.Decode(mustHex(t, blk))
		if err != nil {
			t.Fatalf("block %d: %v", i+1, err)
		}
	}
	want := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/index.html"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: "custom-key", Value: "custom-value"},
	}
	if !reflect.DeepEqual(last, want) {
		t.Fatalf("request 3 = %v, want %v", last, want)
	}
	if d.DynamicTableSize() != 164 {
		t.Fatalf("table size = %d, want 164", d.DynamicTableSize())
	}
}

// TestDecodeRFCAppendixC6 replays the first Huffman-coded response of
// RFC 7541 §C.6 with a 256-byte dynamic table.
func TestDecodeRFCAppendixC6(t *testing.T) {
	d := NewDecoder(0)
	d.SetMaxDynamicTableSize(256)
	got, err := d.Decode(mustHex(t,
		"4882 6402 5885 aec3 771a 4b61 96d0 7abe 9410 54d4 44a8 2005 9504 0b81 66e0 82a6 2d1b ff6e 919d 29ad 1718 63c7 8f0b 97c8 e9ae 82ae 43d3"))
	if err != nil {
		t.Fatal(err)
	}
	want := []HeaderField{
		{Name: ":status", Value: "302"},
		{Name: "cache-control", Value: "private"},
		{Name: "date", Value: "Mon, 21 Oct 2013 20:13:21 GMT"},
		{Name: "location", Value: "https://www.example.com"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("response 1 = %v, want %v", got, want)
	}
	if d.DynamicTableSize() != 222 {
		t.Fatalf("table size = %d, want 222", d.DynamicTableSize())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder(0)
	headers := [][]HeaderField{
		{
			{Name: ":method", Value: "GET"},
			{Name: ":path", Value: "/wiki/landscape"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "sww.example"},
			{Name: "accept", Value: "text/html"},
		},
		{
			{Name: ":method", Value: "GET"},
			{Name: ":path", Value: "/wiki/landscape"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "sww.example"},
			{Name: "accept", Value: "text/html"},
			{Name: "authorization", Value: "Bearer secret-token", Sensitive: true},
		},
		{
			{Name: ":status", Value: "200"},
			{Name: "content-type", Value: "text/html; charset=utf-8"},
			{Name: "x-sww-generated", Value: "1"},
		},
	}
	for i, hs := range headers {
		block := e.AppendFields(nil, hs)
		got, err := d.Decode(block)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(got) != len(hs) {
			t.Fatalf("block %d: %d fields, want %d", i, len(got), len(hs))
		}
		for j := range hs {
			if got[j].Name != hs[j].Name || got[j].Value != hs[j].Value {
				t.Errorf("block %d field %d = %v, want %v", i, j, got[j], hs[j])
			}
			if hs[j].Sensitive && !got[j].Sensitive {
				t.Errorf("block %d field %d lost sensitive flag", i, j)
			}
		}
	}
	// Repeated headers should compress to (nearly) pure index bytes.
	block := e.AppendFields(nil, headers[0])
	if len(block) > len(headers[0])+2 {
		t.Errorf("repeated header block is %d bytes; indexing is not working", len(block))
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEncoder()
	d := NewDecoder(0)
	alpha := "abcdefghijklmnopqrstuvwxyz-0123456789 /=;"
	randStr := func(n int) string {
		b := make([]byte, rng.Intn(n)+1)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(10) + 1
		hs := make([]HeaderField, n)
		for i := range hs {
			hs[i] = HeaderField{
				Name:      randStr(16),
				Value:     randStr(40),
				Sensitive: rng.Intn(10) == 0,
			}
		}
		block := e.AppendFields(nil, hs)
		got, err := d.Decode(block)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range hs {
			if got[i].Name != hs[i].Name || got[i].Value != hs[i].Value {
				t.Fatalf("iter %d field %d = %v, want %v", iter, i, got[i], hs[i])
			}
		}
	}
}

func TestTableSizeUpdate(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder(0)
	// Shrink then grow: both updates must be present at the start of
	// the next block and accepted by the decoder.
	e.SetMaxDynamicTableSize(0)
	e.SetMaxDynamicTableSize(1024)
	block := e.AppendFields(nil, []HeaderField{{Name: "x", Value: "y"}})
	if _, err := d.Decode(block); err != nil {
		t.Fatalf("decode after resize: %v", err)
	}
	// An update exceeding the decoder's allowance is a decode error.
	d2 := NewDecoder(0)
	d2.SetMaxDynamicTableSize(64)
	bad := appendInteger(nil, 0x20, 5, 65)
	if _, err := d2.Decode(bad); err != ErrTableSizeUpdate {
		t.Errorf("oversized update: %v, want ErrTableSizeUpdate", err)
	}
	// Updates after the first field are illegal.
	mid := appendInteger(nil, 0x80, 7, 2) // :method GET
	mid = appendInteger(mid, 0x20, 5, 0)
	if _, err := d.Decode(mid); err != ErrTableSizeUpdate {
		t.Errorf("mid-block update: %v, want ErrTableSizeUpdate", err)
	}
}

func TestDecoderErrors(t *testing.T) {
	long := appendInteger(nil, 0x00, 4, 0)
	long = appendString(long, "this-name-is-too-long", false)
	long = appendString(long, "v", false)
	for _, tc := range []struct {
		name      string
		maxString int
		block     []byte
		want      error
	}{
		{"long string", 8, long, ErrStringTooLong},
		{"truncated", 0, []byte{0x40, 0x05, 'a', 'b'}, ErrTruncated},
		{"bad index", 0, appendInteger(nil, 0x80, 7, 200), ErrInvalidIndex},
		// Name :authority, then a value length whose 7-bit prefix
		// promises a continuation byte the block does not have.
		{"cut inside a string length", 0, []byte{0x01, 0x7f}, ErrTruncated},
	} {
		got, err := NewDecoder(tc.maxString).DecodeAppend(nil, tc.block)
		if err != tc.want {
			t.Errorf("%s: %v %q, want %v", tc.name, err, got, tc.want)
		}
	}
}

func TestSensitiveNeverIndexed(t *testing.T) {
	e := NewEncoder()
	f := HeaderField{Name: "authorization", Value: "Bearer tok", Sensitive: true}
	block := e.AppendField(nil, f)
	// First octet must have the 0001 pattern (never-indexed).
	if block[0]&0xf0 != 0x10 {
		t.Fatalf("first octet %02x, want 0001xxxx pattern", block[0])
	}
	if e.DynamicTableSize() != 0 {
		t.Error("sensitive field was added to the dynamic table")
	}
	// And the value must appear in cleartext (no Huffman) so auditing
	// middleboxes can redact it deterministically.
	if !bytes.Contains(block, []byte("Bearer tok")) {
		t.Error("sensitive value not in raw form")
	}
}

func TestHeaderFieldSize(t *testing.T) {
	f := HeaderField{Name: "custom-key", Value: "custom-header"}
	if f.Size() != 55 { // RFC 7541 §4.1 example
		t.Errorf("Size = %d, want 55", f.Size())
	}
}

func BenchmarkEncodeRequestHeaders(b *testing.B) {
	e := NewEncoder()
	hs := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/wiki/landscape"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "sww.example"},
		{Name: "accept", Value: "text/html,application/xhtml+xml"},
		{Name: "user-agent", Value: "sww-client/1.0"},
	}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = e.AppendFields(buf[:0], hs)
	}
}

func BenchmarkDecodeRequestHeaders(b *testing.B) {
	e := NewEncoder()
	hs := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/wiki/landscape"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "sww.example"},
	}
	d := NewDecoder(0)
	// First block populates both dynamic tables; the second is the
	// fully indexed steady-state form, which decoding does not mutate.
	first := e.AppendFields(nil, hs)
	if _, err := d.Decode(first); err != nil {
		b.Fatal(err)
	}
	block := e.AppendFields(nil, hs)
	if _, err := d.Decode(block); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(block); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	s := "A detailed photograph of an alpine landscape with a turquoise lake"
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendHuffman(buf[:0], s)
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	s := "A detailed photograph of an alpine landscape with a turquoise lake"
	enc := AppendHuffman(nil, s)
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = DecodeHuffman(buf[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}

package http2

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// pipeFramer returns a framer writing into and reading from the same
// buffer, for codec round trips.
func pipeFramer() (*Framer, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewFramer(&buf, &buf), &buf
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteData(7, true, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != FrameData || got.StreamID != 7 || !got.Has(FlagEndStream) {
		t.Errorf("header = %v", got.FrameHeader)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestDataFrameProperty(t *testing.T) {
	f := func(streamID uint32, end bool, data []byte) bool {
		if len(data) > minMaxFrameSize {
			data = data[:minMaxFrameSize]
		}
		fr, _ := pipeFramer()
		if err := fr.WriteData(streamID&0x7fffffff, end, data); err != nil {
			return false
		}
		got, err := fr.ReadFrame()
		if err != nil {
			return false
		}
		return got.Type == FrameData &&
			got.StreamID == streamID&0x7fffffff &&
			got.Has(FlagEndStream) == end &&
			bytes.Equal(got.Payload, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSettingsFrameRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	in := []Setting{
		{SettingMaxFrameSize, 32768},
		{SettingGenAbility, uint32(GenFull)},
		{SettingID(0x99), 42}, // unknown id survives the wire
	}
	if err := fr.WriteSettings(in...); err != nil {
		t.Fatal(err)
	}
	got, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != FrameSettings || got.StreamID != 0 {
		t.Fatalf("header = %v", got.FrameHeader)
	}
	settings, err := parseSettings(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(settings) != len(in) {
		t.Fatalf("got %d settings, want %d", len(settings), len(in))
	}
	for i := range in {
		if settings[i] != in[i] {
			t.Errorf("setting %d = %v, want %v", i, settings[i], in[i])
		}
	}
}

func TestSettingsPayloadNotMultipleOf6(t *testing.T) {
	if _, err := parseSettings(make([]byte, 7)); err == nil {
		t.Error("want error for 7-byte SETTINGS payload")
	}
}

func TestPingGoAwayWindowUpdateRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	data := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := fr.WritePing(true, data); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteGoAway(9, ErrCodeEnhanceYourCalm, []byte("slow down")); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteWindowUpdate(3, 12345); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteRSTStream(5, ErrCodeCancel); err != nil {
		t.Fatal(err)
	}
	if err := fr.WritePriority(7, 5, true, 16); err != nil {
		t.Fatal(err)
	}

	ping, _ := fr.ReadFrame()
	if ping.Type != FramePing || !ping.Has(FlagAck) || !bytes.Equal(ping.Payload, data[:]) {
		t.Errorf("ping = %v %x", ping.FrameHeader, ping.Payload)
	}
	ga, _ := fr.ReadFrame()
	if ga.Type != FrameGoAway || len(ga.Payload) != 8+len("slow down") {
		t.Errorf("goaway = %v", ga.FrameHeader)
	}
	wu, _ := fr.ReadFrame()
	if wu.Type != FrameWindowUpdate || wu.StreamID != 3 {
		t.Errorf("window update = %v", wu.FrameHeader)
	}
	rst, _ := fr.ReadFrame()
	if rst.Type != FrameRSTStream || rst.StreamID != 5 {
		t.Errorf("rst = %v", rst.FrameHeader)
	}
	pri, _ := fr.ReadFrame()
	if pri.Type != FramePriority || pri.StreamID != 7 || len(pri.Payload) != 5 {
		t.Errorf("priority = %v", pri.FrameHeader)
	}
	if pri.Payload[0]&0x80 == 0 {
		t.Error("exclusive bit lost")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a header declaring a 20000-byte payload.
	buf.Write([]byte{0x00, 0x4e, 0x20, byte(FrameData), 0, 0, 0, 0, 1})
	buf.Write(make([]byte, 20000))
	fr := NewFramer(&buf, &buf)
	_, err := fr.ReadFrame()
	ce, ok := err.(ConnectionError)
	if !ok || ce.Code != ErrCodeFrameSize {
		t.Errorf("err = %v, want FRAME_SIZE connection error", err)
	}
}

// frameWire returns the wire bytes of a frame sequence and the offset
// at which each frame ends. With big set it is several read buffers
// long, so read-ahead has to move a partial frame to the front of the
// buffer more than once.
func frameWire(t testing.TB, big bool) (wire []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFramer(&buf, nil)
	mark := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	mark(fw.WriteSettings(Setting{SettingMaxFrameSize, 1 << 15}, Setting{SettingGenAbility, uint32(GenFull)}))
	mark(fw.WriteSettingsAck())
	mark(fw.WriteHeaders(1, false, true, []byte("a header block fragment")))
	mark(fw.WriteData(1, false, []byte("body")))
	mark(fw.WriteData(1, true, nil))
	mark(fw.WritePing(false, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	mark(fw.WriteWindowUpdate(0, 1<<20))
	mark(fw.WriteRSTStream(3, ErrCodeCancel))
	if big {
		fill := make([]byte, minMaxFrameSize)
		for i := range fill {
			fill[i] = byte(i * 7)
		}
		for _, n := range []int{minMaxFrameSize, 10000, 1, minMaxFrameSize - 1, 9000, 12000} {
			mark(fw.WriteData(5, false, fill[:n]))
		}
	}
	mark(fw.WriteGoAway(5, ErrCodeNo, []byte("bye")))
	return buf.Bytes(), ends
}

// readFrames reads up to limit frames from r through a fresh Framer,
// copying every payload, and returns them with the error that ended
// the sequence. A timeout is retried: the Framer must have kept the
// bytes it had.
func readFrames(r io.Reader, limit int) ([]Frame, error) {
	fr := NewFramer(nil, r)
	var out []Frame
	for len(out) < limit {
		f, err := fr.ReadFrame()
		if errors.Is(err, iotest.ErrTimeout) {
			continue
		}
		if err != nil {
			return out, err
		}
		f.Payload = append([]byte(nil), f.Payload...)
		out = append(out, f)
	}
	return out, nil
}

func sameFrames(a, b []Frame) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d frames, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FrameHeader != b[i].FrameHeader || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return fmt.Errorf("frame %d is %v (%d payload bytes), want %v", i, a[i].FrameHeader, len(a[i].Payload), b[i].FrameHeader)
		}
	}
	return nil
}

// choppyReader hands out its bytes in seeded random pieces and fails
// about one Read in four with a timeout that consumed nothing.
type choppyReader struct {
	rng  *rand.Rand
	rest []byte
}

func (c *choppyReader) Read(p []byte) (int, error) {
	if c.rng.Intn(4) == 0 {
		return 0, iotest.ErrTimeout
	}
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.rest), 1+c.rng.Intn(1<<uint(c.rng.Intn(15))))
	copy(p, c.rest[:n])
	c.rest = c.rest[n:]
	return n, nil
}

// TestReadFrameSplitInvariance: however the transport cuts the byte
// stream up — and wherever it reports an error between two pieces — the
// Framer returns the frames an unsplit read returns, then io.EOF.
func TestReadFrameSplitInvariance(t *testing.T) {
	wire, ends := frameWire(t, true)
	want, err := readFrames(bytes.NewReader(wire), 1<<10)
	if err != io.EOF || len(want) != len(ends) {
		t.Fatalf("unsplit: %d frames, %v; want %d and io.EOF", len(want), err, len(ends))
	}
	readers := map[string]func() io.Reader{
		"OneByteReader": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(wire)) },
		"HalfReader":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(wire)) },
		"DataErrReader": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(wire)) },
		"TimeoutReader": func() io.Reader { return iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(wire))) },
	}
	for seed := int64(1); seed <= 50; seed++ {
		readers[fmt.Sprintf("choppy/seed=%d", seed)] = func() io.Reader {
			return &choppyReader{rng: rand.New(rand.NewSource(seed)), rest: wire}
		}
	}
	for name, mk := range readers {
		got, err := readFrames(mk(), 1<<10)
		if err != io.EOF {
			t.Errorf("%s: sequence ended with %v, want io.EOF", name, err)
		}
		if err := sameFrames(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReadFrameTruncation: input cut at every byte offset yields the
// frames that are complete, then io.EOF exactly when the cut falls
// between two frames and io.ErrUnexpectedEOF when it falls inside one.
func TestReadFrameTruncation(t *testing.T) {
	wire, ends := frameWire(t, false)
	boundary := map[int]int{0: 0} // offset -> frames complete there
	for i, end := range ends {
		boundary[end] = i + 1
	}
	complete := 0
	for cut := 0; cut <= len(wire); cut++ {
		wantErr := io.ErrUnexpectedEOF
		if n, ok := boundary[cut]; ok {
			complete, wantErr = n, io.EOF
		}
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(wire[:cut]),
			"bytewise": iotest.OneByteReader(bytes.NewReader(wire[:cut])),
		} {
			got, err := readFrames(r, 1<<10)
			if err != wantErr || len(got) != complete {
				t.Fatalf("cut at %d (%s): %d frames then %v, want %d then %v", cut, name, len(got), err, complete, wantErr)
			}
		}
	}
}

// TestPayloadIsCapLimited: a payload ends where its capacity does, so
// appending to frame n cannot write over frame n+1, which read-ahead
// has already placed right behind it.
func TestPayloadIsCapLimited(t *testing.T) {
	wire, _ := frameWire(t, false)
	want, _ := readFrames(bytes.NewReader(wire), 1<<10)
	fr := NewFramer(nil, bytes.NewReader(wire))
	for i := range want {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if cap(f.Payload) != len(f.Payload) {
			t.Fatalf("frame %d: payload of %d bytes has capacity %d", i, len(f.Payload), cap(f.Payload))
		}
		if err := sameFrames([]Frame{f}, want[i:i+1]); err != nil {
			t.Fatalf("after appending to its predecessor: %v", err)
		}
		_ = append(f.Payload, bytes.Repeat([]byte{0xff}, 64)...)
	}
}

// TestSetMaxReadFrameSizeKeepsReadAhead: raising the ceiling swaps the
// read buffer; what was read ahead moves with it, and a frame of the
// new size is then accepted.
func TestSetMaxReadFrameSizeKeepsReadAhead(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFramer(&buf, nil)
	fw.WriteData(1, false, []byte("first"))
	fw.WriteData(1, false, []byte("second"))
	large := bytes.Repeat([]byte{'L'}, 3*minMaxFrameSize)
	fw.WriteData(1, true, large)

	fr := NewFramer(nil, &buf)
	if f, err := fr.ReadFrame(); err != nil || string(f.Payload) != "first" {
		t.Fatalf("first frame %q, %v", f.Payload, err)
	}
	if fr.rend == fr.rpos {
		t.Fatal("nothing was read ahead; the test needs the second frame buffered")
	}
	fr.SetMaxReadFrameSize(4 * minMaxFrameSize)
	if f, err := fr.ReadFrame(); err != nil || string(f.Payload) != "second" {
		t.Fatalf("second frame %q, %v", f.Payload, err)
	}
	if f, err := fr.ReadFrame(); err != nil || !bytes.Equal(f.Payload, large) || !f.Has(FlagEndStream) {
		t.Fatalf("large frame: %d bytes, %v", len(f.Payload), err)
	}
}

func TestStripPadding(t *testing.T) {
	h := FrameHeader{Flags: FlagPadded}
	payload := append([]byte{3}, []byte("datapad")...)
	got, err := stripPadding(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Errorf("got %q, want %q", got, "data")
	}
	// Padding longer than the payload is a protocol error.
	if _, err := stripPadding(h, []byte{9, 'x'}); err == nil {
		t.Error("want error for excessive padding")
	}
	if _, err := stripPadding(h, nil); err == nil {
		t.Error("want error for empty padded frame")
	}
	// Unpadded frames pass through.
	got, err = stripPadding(FrameHeader{}, []byte("raw"))
	if err != nil || string(got) != "raw" {
		t.Errorf("unpadded = %q, %v", got, err)
	}
}

func TestStripPriority(t *testing.T) {
	h := FrameHeader{Flags: FlagPriority}
	payload := append(make([]byte, 5), []byte("block")...)
	got, err := stripPriority(h, payload)
	if err != nil || string(got) != "block" {
		t.Errorf("got %q, %v", got, err)
	}
	if _, err := stripPriority(h, make([]byte, 3)); err == nil {
		t.Error("want error for short priority section")
	}
}

func TestSettingValidation(t *testing.T) {
	bad := []Setting{
		{SettingEnablePush, 2},
		{SettingInitialWindowSize, 1 << 31},
		{SettingMaxFrameSize, 100},
		{SettingMaxFrameSize, 1 << 24},
	}
	for _, s := range bad {
		if err := s.valid(); err == nil {
			t.Errorf("%v: want validation error", s)
		}
	}
	good := []Setting{
		{SettingEnablePush, 0},
		{SettingInitialWindowSize, 1<<31 - 1},
		{SettingMaxFrameSize, 16384},
		{SettingGenAbility, uint32(GenFull)},
	}
	for _, s := range good {
		if err := s.valid(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestGenAbility(t *testing.T) {
	if got := GenFull.Intersect(GenFull); got != GenFull {
		t.Errorf("full∩full = %v", got)
	}
	// The paper's binary prototype value.
	if got := GenAbility(1).Intersect(GenAbility(1)); got != GenBasic {
		t.Errorf("1∩1 = %v, want basic", got)
	}
	// Any side lacking the basic bit kills the negotiation even if
	// other bits overlap.
	if got := (GenImage | GenText).Intersect(GenFull); got != GenNone {
		t.Errorf("no-basic ∩ full = %v, want none", got)
	}
	if got := GenNone.Intersect(GenFull); got != GenNone {
		t.Errorf("none∩full = %v", got)
	}
	// Upscale-only negotiation (paper §3: "such as upscale-only").
	upscaler := GenBasic | GenUpscaleOnly
	if got := upscaler.Intersect(GenFull | GenUpscaleOnly); got != upscaler {
		t.Errorf("upscale∩full+upscale = %v, want %v", got, upscaler)
	}
	if !GenFull.Supports(GenImage) {
		t.Error("full should support image")
	}
	if GenBasic.Supports(GenImage) {
		t.Error("basic alone should not support image")
	}
	for _, c := range []struct {
		a    GenAbility
		want string
	}{
		{GenNone, "none"},
		{GenBasic, "basic"},
		{GenFull, "basic+image+text"},
		{GenBasic | GenVideoFrameRate, "basic+video-fps"},
	} {
		if got := c.a.String(); got != c.want {
			t.Errorf("String(%#x) = %q, want %q", uint32(c.a), got, c.want)
		}
	}
}

func TestErrCodeStrings(t *testing.T) {
	if ErrCodeProtocol.String() != "PROTOCOL_ERROR" {
		t.Error("bad PROTOCOL_ERROR string")
	}
	if ErrCode(0xff).String() == "" {
		t.Error("unknown code should still format")
	}
	ce := connError(ErrCodeProtocol, "bad %s", "thing")
	if ce.Error() == "" || ce.Code != ErrCodeProtocol {
		t.Error("connError broken")
	}
	se := streamError(3, ErrCodeCancel, "x")
	if se.StreamID != 3 {
		t.Error("streamError broken")
	}
}

func BenchmarkFrameWriteData(b *testing.B) {
	var sink bytes.Buffer
	fr := NewFramer(&sink, &sink)
	payload := make([]byte, 8192)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := fr.WriteData(1, false, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameReadData reads one 8 KiB DATA frame per op into the
// framer's own buffer: 0 allocs/op (TestFramerAllocs).
func BenchmarkFrameReadData(b *testing.B) {
	op := frameReadData(b)
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// frameReadData returns one op of BenchmarkFrameReadData.
func frameReadData(tb testing.TB) func() {
	var buf bytes.Buffer
	fr := NewFramer(&buf, &buf)
	fr.WriteData(1, false, make([]byte, 8192))
	raw := append([]byte(nil), buf.Bytes()...)
	return func() {
		buf.Reset()
		buf.Write(raw)
		if _, err := fr.ReadFrame(); err != nil {
			tb.Fatal(err)
		}
	}
}

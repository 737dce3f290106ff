package http2

// Protocol-hardening tests: a raw framer plays misbehaving peer
// against a real server and checks the mandated error handling.

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sww/internal/hpack"
)

// rawPeer is a hand-driven HTTP/2 client built directly on the frame
// codec.
type rawPeer struct {
	t    *testing.T
	nc   net.Conn
	fr   *Framer
	henc *hpack.Encoder
}

// dialRaw connects a raw peer to a served connection and completes
// the preface + SETTINGS exchange.
func dialRaw(t *testing.T, h Handler) *rawPeer {
	t.Helper()
	return dialRawCfg(t, Config{}, h)
}

func (p *rawPeer) read() Frame {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	fr, err := p.fr.ReadFrame()
	if err != nil {
		p.t.Fatalf("raw read: %v", err)
	}
	return fr
}

// readUntil skips frames until one of the wanted types arrives.
func (p *rawPeer) readUntil(types ...FrameType) Frame {
	p.t.Helper()
	for i := 0; i < 20; i++ {
		fr := p.read()
		for _, want := range types {
			if fr.Type == want {
				return fr
			}
		}
	}
	p.t.Fatalf("no frame of types %v", types)
	return Frame{}
}

// request sends a minimal GET on the stream.
func (p *rawPeer) request(streamID uint32, path string) {
	p.t.Helper()
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: path},
	})
	if err := p.fr.WriteHeaders(streamID, true, true, block); err != nil {
		p.t.Fatal(err)
	}
}

func okHandler(w *ResponseWriter, r *Request) {
	w.WriteHeaders(200)
	io.WriteString(w, "ok")
}

func TestRawHappyPath(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.request(1, "/")
	hf := p.readUntil(FrameHeaders)
	if hf.StreamID != 1 {
		t.Fatalf("response on stream %d", hf.StreamID)
	}
	df := p.readUntil(FrameData)
	if string(df.Payload) != "ok" {
		t.Fatalf("data = %q", df.Payload)
	}
	// The server may carry END_STREAM on the data frame or on a
	// trailing empty DATA frame; drain until it arrives.
	for !df.Has(FlagEndStream) {
		df = p.readUntil(FrameData)
	}
}

// TestDataOnStreamZero: §6.1 — DATA on stream 0 is a connection
// error.
func TestDataOnStreamZero(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.WriteData(0, false, []byte("bad"))
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeProtocol {
		t.Errorf("GOAWAY code %v, want PROTOCOL_ERROR", code)
	}
}

// TestWindowUpdateZeroOnConnection: a zero increment on stream 0 is a
// connection error (§6.9).
func TestWindowUpdateZeroOnConnection(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.WriteWindowUpdate(0, 0)
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeProtocol {
		t.Errorf("GOAWAY code %v", code)
	}
}

// TestWindowUpdateZeroOnStream: a zero increment on a stream resets
// just that stream.
func TestWindowUpdateZeroOnStream(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := dialRaw(t, HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-block
	}))
	p.request(1, "/")
	p.fr.WriteWindowUpdate(1, 0)
	rst := p.readUntil(FrameRSTStream)
	if rst.StreamID != 1 {
		t.Errorf("RST on stream %d", rst.StreamID)
	}
}

// TestEvenStreamIDRejected: clients must use odd stream ids (§5.1.1).
func TestEvenStreamIDRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.request(2, "/")
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeProtocol {
		t.Errorf("GOAWAY code %v", code)
	}
}

// TestDecreasingStreamIDRejected: stream ids must increase (§5.1.1).
func TestDecreasingStreamIDRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.request(5, "/")
	p.readUntil(FrameData) // drain response
	p.request(3, "/")
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeProtocol {
		t.Errorf("GOAWAY code %v", code)
	}
}

// TestBadHPACKIsCompressionError: an undecodable header block kills
// the connection with COMPRESSION_ERROR (§4.3).
func TestBadHPACKIsCompressionError(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	// An indexed field referencing a nonexistent table entry.
	p.fr.WriteHeaders(1, true, true, []byte{0xff, 0xff, 0xff})
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeCompression {
		t.Errorf("GOAWAY code %v, want COMPRESSION_ERROR", code)
	}
}

// TestUppercaseHeaderRejected: field names must be lowercase (§8.2).
func TestUppercaseHeaderRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/"},
		{Name: "X-Bad", Value: "v"},
	})
	p.fr.WriteHeaders(1, true, true, block)
	rst := p.readUntil(FrameRSTStream)
	if rst.StreamID != 1 {
		t.Errorf("RST on stream %d", rst.StreamID)
	}
}

// TestMissingPseudoHeadersRejected: requests need :method/:scheme/
// :path (§8.3.1).
func TestMissingPseudoHeadersRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
	})
	p.fr.WriteHeaders(1, true, true, block)
	p.readUntil(FrameRSTStream)
}

// TestPseudoAfterRegularRejected: pseudo-headers must precede regular
// fields (§8.3).
func TestPseudoAfterRegularRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: "accept", Value: "*/*"},
		{Name: ":path", Value: "/"},
		{Name: ":scheme", Value: "https"},
	})
	p.fr.WriteHeaders(1, true, true, block)
	p.readUntil(FrameRSTStream)
}

// TestUnknownFrameTypeIgnored: unknown types must be ignored (§4.1).
func TestUnknownFrameTypeIgnored(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.writeFrame(FrameType(0xbe), 0, 0, []byte{1, 2, 3})
	p.request(1, "/after-unknown")
	df := p.readUntil(FrameData)
	if string(df.Payload) != "ok" {
		t.Errorf("connection unusable after unknown frame: %q", df.Payload)
	}
}

// TestPriorityIgnored: PRIORITY parses and is ignored (RFC 9113
// deprecates the scheme).
func TestPriorityIgnored(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.WritePriority(1, 0, false, 200)
	p.request(1, "/")
	df := p.readUntil(FrameData)
	if string(df.Payload) != "ok" {
		t.Error("connection broken by PRIORITY frame")
	}
}

// TestMalformedPriorityLength: PRIORITY with a wrong length is a
// stream error (§6.3).
func TestMalformedPriorityLength(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.writeFrame(FramePriority, 0, 3, []byte{1, 2})
	rst := p.readUntil(FrameRSTStream)
	if rst.StreamID != 3 {
		t.Errorf("RST on stream %d", rst.StreamID)
	}
}

// TestPushPromiseRejected: we advertise ENABLE_PUSH = 0; any
// PUSH_PROMISE is a connection error (§6.6).
func TestPushPromiseRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.writeFrame(FramePushPromise, FlagEndHeaders, 1, make([]byte, 4))
	p.readUntil(FrameGoAway)
}

// TestPaddedDataAccepted: padded DATA delivers only the data.
func TestPaddedDataAccepted(t *testing.T) {
	bodyCh := make(chan string, 1)
	p := dialRaw(t, HandlerFunc(func(w *ResponseWriter, r *Request) {
		b, _ := io.ReadAll(r.Body)
		bodyCh <- string(b)
		w.WriteHeaders(200)
	}))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/padded"},
	})
	p.fr.WriteHeaders(1, false, true, block)
	// DATA with 4 bytes of padding: PadLength byte + payload + pad.
	payload := append([]byte{4}, []byte("datacontent")...)
	payload = append(payload, make([]byte, 4)...)
	p.fr.writeFrame(FrameData, FlagEndStream|FlagPadded, 1, payload)
	select {
	case got := <-bodyCh:
		if got != "datacontent" {
			t.Errorf("body = %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never saw the padded body")
	}
}

// TestContinuationInterleavingRejected: frames from another stream
// between HEADERS and CONTINUATION are a connection error (§6.10).
func TestContinuationInterleavingRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/"},
	})
	half := len(block) / 2
	p.fr.WriteHeaders(1, true, false, block[:half]) // no END_HEADERS
	p.fr.WritePing(false, [8]byte{})                // interleaved frame
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeProtocol {
		t.Errorf("GOAWAY code %v", code)
	}
}

// TestFlowControlViolation: sending more DATA than the granted window
// is a flow-control error (§6.9.1).
func TestFlowControlViolation(t *testing.T) {
	stall := make(chan struct{})
	defer close(stall)
	p := dialRaw(t, HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-stall // never reads the body, so no window is returned
	}))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/flood"},
	})
	p.fr.WriteHeaders(1, false, true, block)
	// Flood past the 64 KiB window without waiting for WINDOW_UPDATE.
	chunk := make([]byte, 16384)
	for i := 0; i < 6; i++ { // 96 KiB > 65535
		if err := p.fr.WriteData(1, false, chunk); err != nil {
			return // server already tore the connection down: also fine
		}
	}
	fr := p.readUntil(FrameRSTStream, FrameGoAway)
	switch fr.Type {
	case FrameRSTStream:
		if rstCode(fr) != ErrCodeFlowControl {
			t.Errorf("RST code %v", rstCode(fr))
		}
	case FrameGoAway:
		if goAwayCode(fr) != ErrCodeFlowControl {
			t.Errorf("GOAWAY code %v", goAwayCode(fr))
		}
	}
}

// TestSettingsAckWithPayloadRejected (§6.5).
func TestSettingsAckWithPayloadRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.fr.writeFrame(FrameSettings, FlagAck, 0, []byte{0, 0, 0, 0, 0, 0})
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeFrameSize {
		t.Errorf("GOAWAY code %v, want FRAME_SIZE_ERROR", code)
	}
}

// TestInitialWindowShrinkMidStream: a peer lowering
// INITIAL_WINDOW_SIZE mid-stream can drive a stream window negative;
// the server must stop sending until updates arrive, not crash.
func TestInitialWindowShrinkMidStream(t *testing.T) {
	// The 1-byte window forces a dribble of tiny DATA frames, each
	// answered by two WINDOW_UPDATEs: the two the frame earns, so the
	// abuse ledger lets the transfer finish.
	p := dialRawCfg(t, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		w.Write(make([]byte, 100_000)) // larger than one window
	}))
	p.request(1, "/big")
	p.readUntil(FrameHeaders)
	// Shrink the window to 1 byte mid-transfer.
	p.fr.WriteSettings(Setting{SettingInitialWindowSize, 1})
	received := 0
	sawAck := false
	for received < 100_000 {
		fr := p.read()
		switch fr.Type {
		case FrameData:
			received += int(fr.Length)
			// Return window so the transfer can finish.
			p.fr.WriteWindowUpdate(0, fr.Length)
			p.fr.WriteWindowUpdate(1, fr.Length)
		case FrameSettings:
			sawAck = fr.Has(FlagAck)
		}
	}
	if !sawAck {
		t.Error("server never ACKed the SETTINGS change")
	}
}

func goAwayCode(fr Frame) ErrCode {
	return ErrCode(uint32(fr.Payload[4])<<24 | uint32(fr.Payload[5])<<16 |
		uint32(fr.Payload[6])<<8 | uint32(fr.Payload[7]))
}

func rstCode(fr Frame) ErrCode {
	return ErrCode(uint32(fr.Payload[0])<<24 | uint32(fr.Payload[1])<<16 |
		uint32(fr.Payload[2])<<8 | uint32(fr.Payload[3]))
}

// rawServer plays a hand-driven server against a real ClientConn.
type rawServer struct {
	t    *testing.T
	nc   net.Conn
	fr   *Framer
	henc *hpack.Encoder
}

// acceptRaw completes the handshake from the server side, sending
// settings in the server's SETTINGS frame.
func acceptRaw(t *testing.T, settings ...Setting) (*ClientConn, *rawServer) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	s := &rawServer{t: t, nc: sEnd, fr: NewFramer(sEnd, sEnd), henc: hpack.NewEncoder()}
	done := make(chan *ClientConn, 1)
	go func() {
		cc, err := NewClientConn(cEnd, Config{})
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- cc
	}()
	// Read preface, send SETTINGS, read client SETTINGS, ACK.
	buf := make([]byte, len(ClientPreface))
	if _, err := io.ReadFull(sEnd, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.fr.WriteSettings(settings...); err != nil {
		t.Fatal(err)
	}
	for {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameSettings && !fr.Has(FlagAck) {
			s.fr.WriteSettingsAck()
			break
		}
	}
	cc := <-done
	if cc == nil {
		t.Fatal("client handshake failed")
	}
	t.Cleanup(func() {
		cc.Close()
		sEnd.Close()
	})
	return cc, s
}

// awaitRequest reads until the client's next request HEADERS and
// returns its stream id.
func (s *rawServer) awaitRequest() uint32 {
	s.t.Helper()
	for {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			s.t.Fatal(err)
		}
		if fr.Type == FrameHeaders {
			return fr.StreamID
		}
	}
}

// fetched is what a GET and ReadAllBody came to.
type fetched struct {
	body []byte
	err  error
}

// fetchAsync runs a GET and ReadAllBody on a goroutine of their own:
// against a rawServer the test's goroutine has to play the server.
func fetchAsync(cc *ClientConn, path string) <-chan fetched {
	done := make(chan fetched, 1)
	go func() {
		resp, err := cc.Get(path)
		if err != nil {
			done <- fetched{nil, err}
			return
		}
		body, err := ReadAllBody(resp)
		done <- fetched{body, err}
	}()
	return done
}

// respond writes a 200 response HEADERS frame with the given fields.
func (s *rawServer) respond(id uint32, endStream bool, fields ...hpack.HeaderField) {
	s.t.Helper()
	block := s.henc.AppendFields(nil, append([]hpack.HeaderField{{Name: ":status", Value: "200"}}, fields...))
	if err := s.fr.WriteHeaders(id, endStream, true, block); err != nil {
		s.t.Fatal(err)
	}
}

// TestContentLengthMismatchRejected: a body shorter or longer than its
// content-length is a malformed message (RFC 9113 §8.1.1): the stream
// fails with PROTOCOL_ERROR instead of handing the caller a truncated
// page, and the connection carries on. A body that keeps its word, or
// gives none, is accepted.
func TestContentLengthMismatchRejected(t *testing.T) {
	for _, tc := range []struct {
		name     string
		announce string
		frames   []int // DATA payload sizes; the last one ends the stream
		trailers bool  // ... unless trailers do
		reject   bool
	}{
		{name: "short", announce: "100", frames: []int{60}, reject: true},
		{name: "short before trailers", announce: "100", frames: []int{60}, trailers: true, reject: true},
		{name: "long", announce: "10", frames: []int{20}, reject: true},
		{name: "long in a later frame", announce: "10", frames: []int{6, 6}, reject: true},
		{name: "exact", announce: "100", frames: []int{60, 40}},
		{name: "exact before trailers", announce: "100", frames: []int{100}, trailers: true},
		{name: "not announced", frames: []int{60}},
		{name: "not a number", announce: "many", frames: []int{60}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc, s := acceptRaw(t)
			done := fetchAsync(cc, "/page")
			id := s.awaitRequest()
			var fields []hpack.HeaderField
			if tc.announce != "" {
				fields = append(fields, hpack.HeaderField{Name: "content-length", Value: tc.announce})
			}
			s.respond(id, false, fields...)
			sent := 0
			for i, n := range tc.frames {
				s.fr.WriteData(id, i == len(tc.frames)-1 && !tc.trailers, make([]byte, n))
				sent += n
			}
			if tc.trailers {
				s.fr.WriteHeaders(id, true, true, s.henc.AppendFields(nil, []hpack.HeaderField{{Name: "x-checksum", Value: "abc"}}))
			}
			if tc.reject {
				s.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				for {
					fr, err := s.fr.ReadFrame()
					if err != nil {
						t.Fatalf("waiting for RST_STREAM: %v", err)
					}
					if fr.Type == FrameRSTStream && fr.StreamID == id {
						if code := rstCode(fr); code != ErrCodeProtocol {
							t.Errorf("RST_STREAM(%v), want PROTOCOL_ERROR", code)
						}
						break
					}
				}
			}
			r := <-done
			var se StreamError
			switch {
			case tc.reject && (!errors.As(r.err, &se) || se.Code != ErrCodeProtocol):
				t.Fatalf("ReadAllBody = %d bytes, %v; want a PROTOCOL_ERROR stream error", len(r.body), r.err)
			case !tc.reject && (r.err != nil || len(r.body) != sent):
				t.Fatalf("ReadAllBody = %d bytes, %v; want %d", len(r.body), r.err, sent)
			}

			// The connection lives: the next request is answered.
			done = fetchAsync(cc, "/next")
			id = s.awaitRequest()
			s.respond(id, false)
			s.fr.WriteData(id, true, []byte("next"))
			if r := <-done; r.err != nil || string(r.body) != "next" {
				t.Fatalf("request after the mismatch: %q, %v", r.body, r.err)
			}
		})
	}
}

// TestRequestContentLengthMismatchRejected: the server holds a request
// body to its content-length as the client holds a response. The stream
// is reset with PROTOCOL_ERROR, the handler's read fails instead of
// ending short, the DATA goes back to the connection's window and the
// connection carries on.
func TestRequestContentLengthMismatchRejected(t *testing.T) {
	readErr := make(chan error, 1)
	p, sc := dialRawConn(t, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Method == "POST" {
			_, err := io.ReadAll(r.Body)
			readErr <- err
			return
		}
		okHandler(w, r)
	}))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/upload"},
		{Name: "content-length", Value: "10"},
	})
	p.fr.WriteHeaders(1, false, true, block)
	p.fr.WriteData(1, true, []byte("sixsix"))
	if rst := p.readUntil(FrameRSTStream); rst.StreamID != 1 || rstCode(rst) != ErrCodeProtocol {
		t.Fatalf("RST_STREAM(%v) on stream %d, want PROTOCOL_ERROR on 1", rstCode(rst), rst.StreamID)
	}
	var se StreamError
	if err := <-readErr; !errors.As(err, &se) || se.Code != ErrCodeProtocol {
		t.Errorf("handler read the short body with %v, want a PROTOCOL_ERROR stream error", err)
	}
	if !sc.recvBalanced() {
		t.Errorf("connection window not whole after the rejected DATA: %+v", sc.connRecv)
	}
	p.request(3, "/")
	df := p.readUntil(FrameData)
	for df.StreamID != 3 { // the returning handler may still end stream 1
		df = p.readUntil(FrameData)
	}
	if string(df.Payload) != "ok" {
		t.Fatalf("request after the mismatch answered %q", df.Payload)
	}
}

// TestClientReceivesTrailers: a response with a trailing header block
// surfaces via Stream.Trailers after EOF.
func TestClientReceivesTrailers(t *testing.T) {
	cc, s := acceptRaw(t)
	respCh := make(chan *Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := cc.Get("/with-trailers")
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	s.awaitRequest() // and the ACK traffic before it
	// Response: HEADERS, DATA, trailers HEADERS with END_STREAM.
	hdr := s.henc.AppendFields(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}})
	s.fr.WriteHeaders(1, false, true, hdr)
	s.fr.WriteData(1, false, []byte("payload"))
	trailers := s.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: "x-checksum", Value: "abc123"},
	})
	s.fr.WriteHeaders(1, true, true, trailers)

	select {
	case err := <-errCh:
		t.Fatal(err)
	case resp := <-respCh:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != "payload" {
			t.Errorf("body = %q", body)
		}
		tr := resp.Stream().Trailers()
		if len(tr) != 1 || tr[0].Name != "x-checksum" || tr[0].Value != "abc123" {
			t.Errorf("trailers = %v", tr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no response")
	}
}

// TestClientRejectsMissingStatus: a response without :status is a
// protocol violation surfaced to the caller.
func TestClientRejectsMissingStatus(t *testing.T) {
	cc, s := acceptRaw(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := cc.Get("/no-status")
		errCh <- err
	}()
	s.awaitRequest()
	hdr := s.henc.AppendFields(nil, []hpack.HeaderField{{Name: "content-type", Value: "text/plain"}})
	s.fr.WriteHeaders(1, true, true, hdr)
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("missing :status should fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no result")
	}
}

// TestClientGoAwayFailsNewStreams: after GOAWAY, new requests fail
// fast with the GoAwayError.
func TestClientGoAwayFailsNewStreams(t *testing.T) {
	cc, s := acceptRaw(t)
	s.fr.WriteGoAway(0, ErrCodeNo, []byte("maintenance"))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		_, err := cc.Get("/after-goaway")
		if err == nil {
			continue // GOAWAY may not have been processed yet
		}
		if _, ok := err.(GoAwayError); !ok {
			t.Fatalf("err = %v (%T), want GoAwayError", err, err)
		}
		return
	}
	t.Fatal("requests kept succeeding after GOAWAY")
}

// TestEndlessContinuationRejected: a peer streaming CONTINUATION
// frames forever must be cut off (memory-exhaustion defense).
func TestEndlessContinuationRejected(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	block := p.henc.AppendFields(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/"},
	})
	if err := p.fr.WriteHeaders(1, true, false, block); err != nil {
		t.Fatal(err)
	}
	filler := make([]byte, 16384)
	for i := 0; i < 80; i++ { // 80 × 16 KiB > the 1 MiB cap
		if err := p.fr.WriteContinuation(1, false, filler); err != nil {
			return // connection already severed: acceptable
		}
	}
	fr := p.readUntil(FrameGoAway)
	if code := goAwayCode(fr); code != ErrCodeEnhanceYourCalm {
		t.Errorf("GOAWAY code %v, want ENHANCE_YOUR_CALM", code)
	}
}

// TestStreamContextCanceledOnReset pins the work-cancellation half of
// the rapid-reset defense: a peer RST must cancel the stream context
// so handler work (generation queue waits, worker holds) stops for
// requests nobody is waiting on.
func TestStreamContextCanceledOnReset(t *testing.T) {
	canceled := make(chan struct{})
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		select {
		case <-r.Stream().Context().Done():
			close(canceled)
		case <-time.After(2 * time.Second):
		}
	})
	p := dialRaw(t, h)
	p.request(1, "/park")
	if err := p.fr.WriteRSTStream(1, ErrCodeCancel); err != nil {
		t.Fatal(err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("stream context not canceled on RST_STREAM")
	}
}

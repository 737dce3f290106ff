package http2

// Fuzz harnesses for the wire-facing layers: the frame codec in
// isolation, and a stateful fuzzer that replays mutated frame
// sequences against a live served connection. Seed corpora live in
// testdata/fuzz/ and are replayed by plain `go test` as regression
// cases.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"sww/internal/hpack"
)

// FuzzFrameParse drives the Framer and its payload helpers over
// arbitrary bytes. The parser must neither panic nor allocate beyond
// the configured frame-size cap, whatever the length field claims.
func FuzzFrameParse(f *testing.F) {
	// A valid SETTINGS frame, a short PING, a HEADERS with padding and
	// priority, a frame whose length field lies, and plain junk.
	f.Add([]byte("\x00\x00\x06\x04\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x64"))
	f.Add([]byte("\x00\x00\x08\x06\x00\x00\x00\x00\x00pingpong"))
	f.Add([]byte("\x00\x00\x05\x01\x2d\x00\x00\x00\x01\x01\x00\x00\x00\x02\x00"))
	f.Add([]byte("\xff\xff\xff\x00\x00\x00\x00\x00\x01"))
	f.Add([]byte("garbage that is not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFramer(io.Discard, bytes.NewReader(data))
		fr.SetMaxReadFrameSize(1 << 16)
		// The same input one byte at a time: where the transport cuts
		// the stream must change neither a frame nor the error.
		slow := NewFramer(io.Discard, iotest.OneByteReader(bytes.NewReader(data)))
		slow.SetMaxReadFrameSize(1 << 16)
		for i := 0; i < 64; i++ {
			frame, err := fr.ReadFrame()
			again, errAgain := slow.ReadFrame()
			if frame.FrameHeader != again.FrameHeader || !bytes.Equal(frame.Payload, again.Payload) || fmt.Sprint(err) != fmt.Sprint(errAgain) {
				t.Fatalf("frame %d: %v (%d bytes), %v; read bytewise: %v (%d bytes), %v", i,
					frame.FrameHeader, len(frame.Payload), err, again.FrameHeader, len(again.Payload), errAgain)
			}
			if err != nil {
				return
			}
			// Exercise the per-type payload parsers the read loop uses.
			switch frame.Type {
			case FrameSettings:
				parseSettings(frame.Payload)
			case FrameData:
				stripPadding(frame.FrameHeader, frame.Payload)
			case FrameHeaders:
				if p, err := stripPadding(frame.FrameHeader, frame.Payload); err == nil {
					stripPriority(frame.FrameHeader, p)
				}
			}
		}
	})
}

// FuzzConnFrames is the stateful connection fuzzer: arbitrary bytes
// are written after a valid preface + SETTINGS exchange to a real
// served connection. The server must always terminate the connection
// (no hangs), never panic, and keep abuse scoring from interfering
// with teardown.
func FuzzConnFrames(f *testing.F) {
	// A clean GET exchange, a rapid-reset pair, a PING flood, an
	// empty-CONTINUATION chain, and junk.
	f.Add([]byte("\x00\x00\x0a\x01\x05\x00\x00\x00\x01\x82\x86\x84\x41\x04host"))
	f.Add([]byte("\x00\x00\x01\x01\x05\x00\x00\x00\x01\x82\x00\x00\x04\x03\x00\x00\x00\x00\x01\x00\x00\x00\x08"))
	f.Add(bytes.Repeat([]byte("\x00\x00\x08\x06\x00\x00\x00\x00\x00fuzzping"), 12))
	f.Add([]byte("\x00\x00\x01\x01\x01\x00\x00\x00\x01\x82" + "\x00\x00\x00\x09\x00\x00\x00\x00\x01\x00\x00\x00\x09\x00\x00\x00\x00\x01"))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	// Floods that take the ledger through calm to kill, so the fuzzer
	// starts from every escalation stage.
	for _, fl := range abuseFloods() {
		f.Add(fl.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if !serveFrames(data, nil, true) {
			t.Fatal("served connection hung after mutated frame sequence")
		}
	})
}

// serveFrames writes data, after a valid preface and SETTINGS, to a
// connection served with fuzzHandler and onAbuse, hangs up if told to,
// and waits for the server to end the connection. It reports false if
// the server did not within 5 s.
func serveFrames(data []byte, onAbuse func(AbuseKind, AbuseAction), hangUp bool) bool {
	cEnd, sEnd := net.Pipe()
	srv := &Server{Handler: HandlerFunc(fuzzHandler), Config: Config{OnAbuse: onAbuse}}
	done := make(chan struct{})
	go func() {
		srv.ServeConn(sEnd)
		close(done)
	}()
	cEnd.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.WriteString(cEnd, ClientPreface); err != nil {
		cEnd.Close()
		<-done
		return true
	}
	fr := NewFramer(cEnd, cEnd)
	fr.WriteSettings()
	// Drain whatever the server says so its writes never block.
	go io.Copy(io.Discard, cEnd)
	cEnd.Write(data)
	if hangUp {
		cEnd.Close()
	}
	defer cEnd.Close()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// fuzzHandler answers every request but /hold, which it holds until
// the stream ends: a reset of it is always a rapid one.
func fuzzHandler(w *ResponseWriter, r *Request) {
	if r.Path == "/hold" {
		<-r.Stream().Context().Done()
		return
	}
	okHandler(w, r)
}

// An abuseFlood is a frame sequence that escalates one kind of abuse
// past 4× its budget, the fewest frames that draw the kill.
type abuseFlood struct {
	kind AbuseKind
	data []byte
}

func abuseFloods() []abuseFlood {
	var floods []abuseFlood
	add := func(k AbuseKind, write func(fr *Framer, henc *hpack.Encoder)) {
		var buf bytes.Buffer
		write(NewFramer(&buf, nil), hpack.NewEncoder())
		floods = append(floods, abuseFlood{k, buf.Bytes()})
	}
	hold := func(fr *Framer, henc *hpack.Encoder, id uint32, end bool) {
		fr.WriteHeaders(id, end, true, henc.AppendFields(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":path", Value: "/hold"},
		}))
	}
	// 81 SETTINGS (budget 20), the handshake's included.
	add(AbuseSettingsFlood, func(fr *Framer, _ *hpack.Encoder) {
		for i := 0; i < 80; i++ {
			fr.WriteSettings()
		}
	})
	// 401 PINGs (budget 100).
	add(AbusePingFlood, func(fr *Framer, _ *hpack.Encoder) {
		for i := 0; i < 401; i++ {
			fr.WritePing(false, [8]byte{byte(i >> 8), byte(i)})
		}
	})
	// 401 HEADERS+RST pairs (budget 100): 201 rapid resets flag the
	// connection, and each of the next 200 HEADERS is refused and
	// scored.
	add(AbuseRapidReset, func(fr *Framer, henc *hpack.Encoder) {
		for i := 0; i < 401; i++ {
			id := uint32(1 + 2*i)
			hold(fr, henc, id, true)
			fr.WriteRSTStream(id, ErrCodeCancel)
		}
	})
	// 401 empty DATA frames (budget 100) on one open stream.
	add(AbuseEmptyDataFlood, func(fr *Framer, henc *hpack.Encoder) {
		hold(fr, henc, 1, false)
		for i := 0; i < 401; i++ {
			fr.WriteData(1, false, nil)
		}
	})
	return floods
}

// TestConnFramesFloodSeeds runs FuzzConnFrames's flood seeds through a
// served connection that stays open: each must reach calm and then
// kill for its kind, and the kill ends the connection.
func TestConnFramesFloodSeeds(t *testing.T) {
	for _, fl := range abuseFloods() {
		t.Run(fl.kind.String(), func(t *testing.T) {
			rec := &abuseRecorder{}
			if !serveFrames(fl.data, rec.hook, false) {
				t.Fatal("the flood did not end the connection")
			}
			if calm, kill := rec.count(fl.kind, AbuseCalm), rec.count(fl.kind, AbuseKill); calm == 0 || kill != 1 {
				t.Errorf("%d calm and %d kill reports, want some and one", calm, kill)
			}
		})
	}
}

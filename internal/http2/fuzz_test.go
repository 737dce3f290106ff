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

	f.Fuzz(func(t *testing.T, data []byte) {
		cEnd, sEnd := net.Pipe()
		srv := &Server{
			Handler: HandlerFunc(okHandler),
			// Tight budgets so the fuzzer exercises every escalation
			// stage, not just the happy path.
			Config: Config{AbusePolicy: &AbusePolicy{
				RapidResetBudget: 2, PingBudget: 2, SettingsBudget: 2,
				WindowUpdateBudget: 2, EmptyDataBudget: 2,
			}},
		}
		done := make(chan struct{})
		go func() {
			srv.ServeConn(sEnd)
			close(done)
		}()
		cEnd.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.WriteString(cEnd, ClientPreface); err != nil {
			cEnd.Close()
			<-done
			return
		}
		fr := NewFramer(cEnd, cEnd)
		fr.WriteSettings()
		// Drain whatever the server says so its writes never block.
		go io.Copy(io.Discard, cEnd)
		cEnd.Write(data)
		cEnd.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("served connection hung after mutated frame sequence")
		}
	})
}

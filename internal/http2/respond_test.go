package http2

import (
	"bytes"
	"net"
	"runtime"
	"strconv"
	"testing"

	"sww/internal/hpack"
)

// TestRespondFrameShape: a complete response ends on the frame that
// ends it — END_STREAM on its last DATA frame, or on HEADERS when the
// body is empty — and sends no empty DATA frame. TryRespond and the
// long form write the same frames at every size both can send, and the
// client's content-length check takes the folded END_STREAM. A body
// over one frame takes the long form only; one over the stream window
// makes the long form wait for WINDOW_UPDATE between frames.
func TestRespondFrameShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"one", 1},
		{"frame-1", minMaxFrameSize - 1},
		{"frame", minMaxFrameSize},
		{"frame+1", minMaxFrameSize + 1},
		{"over-window", defaultWindowSize + minMaxFrameSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := patterned(tc.n)
			long := respondFrames(t, body, false)
			checkResponseFrames(t, "long form", long, tc.n)
			if tc.n > minMaxFrameSize {
				return // TryRespond declines a body over one frame
			}
			unit := respondFrames(t, body, true)
			checkResponseFrames(t, "TryRespond", unit, tc.n)
			if err := sameFrames(unit, long); err != nil {
				t.Errorf("TryRespond's frames differ from the long form's: %v", err)
			}
		})
	}
}

// respondFrames serves one GET with body, announced by content-length,
// through TryRespond (unit) or Respond's long form, checks that the
// client reads the body whole, and returns the frames the server wrote
// on the response's stream.
func respondFrames(t *testing.T, body []byte, unit bool) []Frame {
	t.Helper()
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		fields := []hpack.HeaderField{{Name: "content-length", Value: strconv.Itoa(len(body))}}
		if !unit {
			if err := w.respond(200, body, fields); err != nil {
				t.Errorf("long form: %v", err)
			}
			return
		}
		// A declined attempt leaves no trace, so a frame being written
		// by the read loop at that instant only costs a retry.
		for i := 0; !w.TryRespond(200, body, fields...); i++ {
			if i == 1000 {
				t.Error("TryRespond keeps declining")
				return
			}
			runtime.Gosched()
		}
	})
	cEnd, sEnd := net.Pipe()
	rec := &recordingConn{Conn: sEnd}
	sc := (&Server{Handler: h}).StartConn(rec)
	defer sc.Close()
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := sc.WaitClientSettings(); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.Get("/")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAllWithin(t, resp)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("client read %d bytes of %d, %v", len(got), len(body), err)
	}
	// The client has read END_STREAM, so (net.Pipe being synchronous)
	// every frame of the response is in the recording.
	frames, _ := readFrames(bytes.NewReader(rec.bytes()), 1<<20)
	var out []Frame
	for _, f := range frames {
		if f.StreamID == resp.Stream().ID() {
			out = append(out, f)
		}
	}
	return out
}

// checkResponseFrames checks one response's frames: HEADERS, then DATA
// frames that carry n bytes, none empty, END_STREAM on the last frame
// and on no other.
func checkResponseFrames(t *testing.T, form string, frames []Frame, n int) {
	t.Helper()
	if len(frames) == 0 || frames[0].Type != FrameHeaders {
		t.Fatalf("%s: response does not open with HEADERS: %v", form, frames)
	}
	sum := 0
	for i, f := range frames {
		last := i == len(frames)-1
		if f.Has(FlagEndStream) != last {
			t.Errorf("%s: frame %d of %d (%v): END_STREAM %t", form, i+1, len(frames), f.FrameHeader, f.Has(FlagEndStream))
		}
		if i == 0 {
			continue
		}
		if f.Type != FrameData || f.Length == 0 {
			t.Errorf("%s: frame %d is %v, want a non-empty DATA frame", form, i+1, f.FrameHeader)
		}
		sum += int(f.Length)
	}
	if sum != n {
		t.Errorf("%s: DATA carries %d bytes, want %d", form, sum, n)
	}
}

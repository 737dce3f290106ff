package http2

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sww/internal/hpack"
)

// startPair wires a server and client together over net.Pipe and
// returns the client conn plus the server handle.
func startPair(t *testing.T, serverCfg, clientCfg Config, h Handler) (*ClientConn, *ServerConn) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	srv := &Server{Handler: h, Config: serverCfg}
	sc := srv.StartConn(sEnd)

	cc, err := NewClientConn(cEnd, clientCfg)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := sc.WaitClientSettings(); err != nil {
		t.Fatalf("server waiting for client settings: %v", err)
	}
	t.Cleanup(func() {
		cc.Close()
		sc.Close()
	})
	return cc, sc
}

func echoHandler(w *ResponseWriter, r *Request) {
	body, _ := io.ReadAll(r.Body)
	w.WriteHeaders(200,
		hpack.HeaderField{Name: "content-type", Value: "text/plain"},
		hpack.HeaderField{Name: "x-echo-method", Value: r.Method},
		hpack.HeaderField{Name: "x-echo-path", Value: r.Path},
	)
	fmt.Fprintf(w, "echo:%s", body)
}

func TestBasicRequestResponse(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(echoHandler))
	resp, err := cc.Do(&Request{
		Method:    "POST",
		Path:      "/submit",
		Authority: "example.test",
		Body:      strings.NewReader("payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if got := resp.HeaderValue("x-echo-path"); got != "/submit" {
		t.Errorf("x-echo-path = %q", got)
	}
	body, err := ReadAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "echo:payload" {
		t.Errorf("body = %q", body)
	}
}

func TestSequentialRequests(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(echoHandler))
	for i := 0; i < 20; i++ {
		resp, err := cc.Get(fmt.Sprintf("/page/%d", i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
		if _, err := ReadAllBody(resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(echoHandler))
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cc.Do(&Request{
				Method: "POST",
				Path:   fmt.Sprintf("/c/%d", i),
				Body:   strings.NewReader(fmt.Sprintf("req-%d", i)),
			})
			if err != nil {
				errs <- err
				return
			}
			body, err := ReadAllBody(resp)
			if err != nil {
				errs <- err
				return
			}
			if want := fmt.Sprintf("echo:req-%d", i); string(body) != want {
				errs <- fmt.Errorf("body = %q, want %q", body, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLargeResponseFlowControl streams a response much larger than
// both flow-control windows and the maximum frame size.
func TestLargeResponseFlowControl(t *testing.T) {
	const size = 1 << 20 // 1 MiB through 64 KiB windows
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		if _, err := w.Write(pattern); err != nil {
			return
		}
	})
	cc, _ := startPair(t, Config{}, Config{}, h)
	resp, err := cc.Get("/big")
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, pattern) {
		t.Fatalf("body corrupted: got %d bytes", len(body))
	}
}

func TestLargeRequestBody(t *testing.T) {
	const size = 300 << 10
	payload := bytes.Repeat([]byte("sww!"), size/4)
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeaders(500)
			return
		}
		w.WriteHeaders(200, hpack.HeaderField{Name: "x-len", Value: fmt.Sprint(len(body))})
	})
	cc, _ := startPair(t, Config{}, Config{}, h)
	resp, err := cc.Do(&Request{Method: "POST", Path: "/upload", Body: bytes.NewReader(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.HeaderValue("x-len"); got != fmt.Sprint(size) {
		t.Errorf("x-len = %s, want %d", got, size)
	}
	ReadAllBody(resp)
}

// TestHugeHeadersContinuation forces the header block over the
// 16 KiB frame limit so it must be split into CONTINUATION frames.
func TestHugeHeadersContinuation(t *testing.T) {
	big := strings.Repeat("zyxw", 10000) // 40 KB, incompressible enough
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200, hpack.HeaderField{Name: "x-big-out", Value: r.HeaderValue("x-big-in")})
	})
	cc, _ := startPair(t, Config{}, Config{}, h)
	resp, err := cc.Do(&Request{
		Method: "GET",
		Path:   "/hdr",
		Header: []hpack.HeaderField{{Name: "x-big-in", Value: big}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.HeaderValue("x-big-out"); got != big {
		t.Fatalf("big header lost: got %d bytes, want %d", len(got), len(big))
	}
	ReadAllBody(resp)
}

func TestPing(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(echoHandler))
	for i := 0; i < 3; i++ {
		if err := cc.Ping(2 * time.Second); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

// TestCapabilityMatrix is the paper's §6.2 functionality test: the
// four combinations of client/server generative support. Only when
// both sides advertise the ability is it negotiated; in every other
// case the connection behaves as plain HTTP/2.
func TestCapabilityMatrix(t *testing.T) {
	cases := []struct {
		name           string
		server, client GenAbility
		want           GenAbility
	}{
		{"both-support", GenFull, GenFull, GenFull},
		{"server-only", GenFull, GenNone, GenNone},
		{"client-only", GenNone, GenFull, GenNone},
		{"neither", GenNone, GenNone, GenNone},
		{"binary-prototype", GenBasic, GenBasic, GenBasic},
		{"upscale-only-client", GenFull | GenUpscaleOnly, GenBasic | GenUpscaleOnly, GenBasic | GenUpscaleOnly},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var serverSaw GenAbility
			var mu sync.Mutex
			h := HandlerFunc(func(w *ResponseWriter, r *Request) {
				mu.Lock()
				serverSaw = r.PeerGen
				mu.Unlock()
				w.WriteHeaders(200)
				io.WriteString(w, "ok")
			})
			cc, sc := startPair(t, Config{GenAbility: c.server}, Config{GenAbility: c.client}, h)
			if got := cc.Negotiated(); got != c.want {
				t.Errorf("client negotiated = %v, want %v", got, c.want)
			}
			if got := sc.Negotiated(); got != c.want {
				t.Errorf("server negotiated = %v, want %v", got, c.want)
			}
			// Ordinary HTTP must keep working in every combination.
			resp, err := cc.Get("/")
			if err != nil {
				t.Fatal(err)
			}
			if body, _ := ReadAllBody(resp); string(body) != "ok" {
				t.Errorf("body = %q", body)
			}
			mu.Lock()
			defer mu.Unlock()
			if serverSaw != c.want {
				t.Errorf("request.PeerGen = %v, want %v", serverSaw, c.want)
			}
		})
	}
}

// TestNonParticipatingPeerIgnoresSetting verifies RFC 9113's
// unknown-setting rule, which the paper relies on for backward
// compatibility: a GEN_ABILITY-bearing SETTINGS frame must not
// disturb an endpoint that does not implement the extension. We
// simulate the naive peer with ExtraSettings carrying an unrelated
// unknown identifier in both directions.
func TestNonParticipatingPeerIgnoresSetting(t *testing.T) {
	cfg := Config{ExtraSettings: []Setting{{SettingID(0x42), 7}, {SettingID(0xabc), 1}}}
	cc, _ := startPair(t, cfg, cfg, HandlerFunc(echoHandler))
	resp, err := cc.Get("/naive")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Errorf("status = %d", resp.Status)
	}
	ReadAllBody(resp)
	if got := cc.Negotiated(); got != GenNone {
		t.Errorf("negotiated = %v, want none", got)
	}
	if _, advertised := cc.ServerGenAbility(); advertised {
		t.Error("server should not have advertised GEN_ABILITY")
	}
}

func TestServerGenAbilityVisible(t *testing.T) {
	cc, _ := startPair(t, Config{GenAbility: GenFull}, Config{GenAbility: GenBasic | GenImage}, HandlerFunc(echoHandler))
	ability, advertised := cc.ServerGenAbility()
	if !advertised || ability != GenFull {
		t.Errorf("server ability = %v (advertised %v), want full", ability, advertised)
	}
	if got := cc.Negotiated(); got != (GenBasic | GenImage) {
		t.Errorf("negotiated = %v, want basic+image", got)
	}
}

func TestHandlerPanicResetsStream(t *testing.T) {
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/boom" {
			panic("kaboom")
		}
		w.WriteHeaders(200)
		io.WriteString(w, "fine")
	})
	cc, _ := startPair(t, Config{}, Config{}, h)
	// The panicking stream must not take down the connection.
	resp, err := cc.Get("/boom")
	if err == nil {
		// Either an error or a 500 is acceptable depending on timing.
		if resp.Status != 500 {
			body, _ := ReadAllBody(resp)
			t.Logf("panic response: %d %q", resp.Status, body)
		} else {
			ReadAllBody(resp)
		}
	}
	resp, err = cc.Get("/ok")
	if err != nil {
		t.Fatalf("connection unusable after handler panic: %v", err)
	}
	if body, _ := ReadAllBody(resp); string(body) != "fine" {
		t.Errorf("body = %q", body)
	}
}

func TestGracefulClose(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(echoHandler))
	resp, err := cc.Get("/")
	if err != nil {
		t.Fatal(err)
	}
	ReadAllBody(resp)
	if err := cc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cc.Get("/after"); err == nil {
		t.Error("request after close should fail")
	}
}

func TestBadPrefaceRejected(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ServeConn(sEnd) }()
	io.WriteString(cEnd, "GET / HTTP/1.1\r\nHost: x\r\n\r\n____padding____")
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("want preface error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not reject bad preface")
	}
}

func TestFirstFrameMustBeSettings(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	go srv.ServeConn(sEnd)
	io.WriteString(cEnd, ClientPreface)
	fr := NewFramer(cEnd, cEnd)
	// Server sends its SETTINGS first; read it, then violate the
	// protocol by sending PING before SETTINGS.
	if _, err := fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if err := fr.WritePing(false, [8]byte{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		type res struct {
			f   Frame
			err error
		}
		ch := make(chan res, 1)
		go func() {
			f, err := fr.ReadFrame()
			ch <- res{f, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				return // connection torn down, as required
			}
			if r.f.Type == FrameGoAway {
				return // explicit protocol error, as required
			}
		case <-deadline:
			t.Fatal("no GOAWAY or close after protocol violation")
		}
	}
}

// TestRefusedStreamOverLimit: a client counts its open streams against
// the peer's SETTINGS_MAX_CONCURRENT_STREAMS. At the limit the next
// request fails before anything is sent, and a stream that finishes
// frees its slot.
func TestRefusedStreamOverLimit(t *testing.T) {
	release := make(chan struct{})
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/hold" {
			<-release
		}
		w.WriteHeaders(200)
	})
	cc, sc := startPair(t, Config{MaxConcurrentStreams: 2}, Config{}, h)

	// Occupy both slots.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := cc.Get("/hold")
			if err == nil {
				_, err = ReadAllBody(resp)
			}
			results <- err
		}()
	}
	waitCond(t, "both requests to reach their handlers", func() bool {
		_, peers := sc.c.liveStreams()
		return peers == 2
	})
	if _, err := cc.Get("/extra"); err == nil || !strings.Contains(err.Error(), "too many concurrent streams") {
		t.Errorf("third concurrent stream: %v, want the client's own refusal", err)
	}
	sc.c.mu.Lock()
	last := sc.c.lastPeerID
	sc.c.mu.Unlock()
	if last != 3 {
		t.Errorf("the server has seen stream %d, want no stream past 3", last)
	}

	release <- struct{}{}
	if err := <-results; err != nil {
		t.Fatal(err)
	}
	resp, err := cc.Get("/extra")
	if err != nil {
		t.Fatalf("request into the freed slot: %v", err)
	}
	ReadAllBody(resp)
	close(release)
	if err := <-results; err != nil {
		t.Fatal(err)
	}
}

func TestStreamCancellation(t *testing.T) {
	started := make(chan struct{}, 1)
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		w.Write(make([]byte, 1024))
		started <- struct{}{}
		// Keep writing until the client cancels; the write must
		// eventually fail rather than hang forever.
		for i := 0; i < 10000; i++ {
			if _, err := w.Write(make([]byte, 1024)); err != nil {
				return
			}
		}
	})
	cc, _ := startPair(t, Config{}, Config{}, h)
	resp, err := cc.Get("/stream")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// The connection stays healthy for new requests.
	resp2, err := cc.Get("/after-cancel")
	if err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
	ReadAllBody(resp2)
}

func TestInitialWindowSizeConfig(t *testing.T) {
	const large = 1 << 18
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		w.Write(make([]byte, large))
	})
	cc, _ := startPair(t,
		Config{InitialWindowSize: large},
		Config{InitialWindowSize: large},
		h)
	resp, err := cc.Get("/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != large {
		t.Errorf("got %d bytes, want %d", len(body), large)
	}
}

func TestSendFlow(t *testing.T) {
	f := newSendFlow(10)
	n, err := f.take(4)
	if err != nil || n != 4 {
		t.Fatalf("take = %d, %v", n, err)
	}
	n, _ = f.take(100)
	if n != 6 {
		t.Fatalf("take remaining = %d, want 6", n)
	}
	// Window exhausted: take blocks until add.
	done := make(chan int, 1)
	go func() {
		n, _ := f.take(5)
		done <- n
	}()
	select {
	case <-done:
		t.Fatal("take returned with empty window")
	case <-time.After(50 * time.Millisecond):
	}
	f.add(3)
	if got := <-done; got != 3 {
		t.Errorf("take after add = %d, want 3", got)
	}
	// Overflow detection: window is 0 here, so one maximal update is
	// legal and a second overflows.
	if !f.add(1<<31 - 1) {
		t.Error("maximal window update wrongly rejected")
	}
	if f.add(1) {
		t.Error("overflow not detected")
	}
	// fail wakes waiters.
	f2 := newSendFlow(0)
	errCh := make(chan error, 1)
	go func() {
		_, err := f2.take(1)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	f2.fail(io.ErrClosedPipe)
	if err := <-errCh; err != io.ErrClosedPipe {
		t.Errorf("failed take err = %v", err)
	}
}

func TestRecvFlow(t *testing.T) {
	f := newRecvFlow(100)
	if !f.onData(60) {
		t.Fatal("within window rejected")
	}
	if f.onData(41) {
		t.Fatal("overflow accepted")
	}
	// Consuming less than half the target batches the update.
	if incr := f.onConsume(30); incr != 0 {
		t.Errorf("early update of %d", incr)
	}
	if incr := f.onConsume(30); incr != 60 {
		t.Errorf("update = %d, want 60", incr)
	}
	if f.granted != 100 {
		t.Errorf("granted = %d, want 100", f.granted)
	}
}

func BenchmarkNegotiation(b *testing.B) {
	// Full connection setup including SETTINGS_GEN_ABILITY exchange:
	// the cost of the paper's capability negotiation (§3), which
	// happens once per connection.
	h := HandlerFunc(func(w *ResponseWriter, r *Request) { w.WriteHeaders(200) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cEnd, sEnd := net.Pipe()
		srv := &Server{Handler: h, Config: Config{GenAbility: GenFull}}
		sc := srv.StartConn(sEnd)
		cc, err := NewClientConn(cEnd, Config{GenAbility: GenFull})
		if err != nil {
			b.Fatal(err)
		}
		if cc.Negotiated() != GenFull {
			b.Fatal("negotiation failed")
		}
		cc.Close()
		sc.Close()
	}
}

func BenchmarkRequestResponse(b *testing.B) {
	cEnd, sEnd := net.Pipe()
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		io.WriteString(w, "ok")
	})}
	go srv.ServeConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cc.Get("/bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadAllBody(resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDownload1MB(b *testing.B) {
	payload := make([]byte, 1<<20)
	cEnd, sEnd := net.Pipe()
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200)
		w.Write(payload)
	}), Config: Config{InitialWindowSize: 1 << 20}}
	go srv.ServeConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{InitialWindowSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cc.Get("/big")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil || n != 1<<20 {
			b.Fatalf("copy: %d, %v", n, err)
		}
		resp.Body.Close()
	}
}

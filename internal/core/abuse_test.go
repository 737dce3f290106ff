package core

// Abuse tests: the http2 abuse ledger and stream-context cancellation
// seen from the serving path. Attackers on connections of their own
// are killed with GOAWAY(ENHANCE_YOUR_CALM) while a legitimate client
// beside them fetches with no error and no escalation, and a reset
// stream gives its generation worker back at once.

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/overload"
)

// TestLegitClientUnderAttack runs one ResilientClient beside a
// rapid-reset attacker and a PING flooder, each on a connection of its
// own, against the ledger's budgets (100 of each per window) and
// generations that hold their worker. Every legitimate fetch succeeds
// and its connection never reads an ENHANCE_YOUR_CALM reset or a
// GOAWAY, while each attacker is killed with GOAWAY(ENHANCE_YOUR_CALM)
// and both kills are counted.
func TestLegitClientUnderAttack(t *testing.T) {
	const (
		legit       = 8
		attackPages = 32
	)
	srv := newOverloadServer(t, overload.Config{
		MaxGenWorkers: 2,
		GenWallScale:  holdScale(t, overloadGenPage(0), 10*time.Millisecond),
	})
	for i := 0; i < legit+attackPages; i++ {
		srv.AddPage(overloadGenPage(i))
	}

	// Every rapid reset opens a stream on a cold page, a generation
	// the reset has to cancel.
	resets := attack(t, srv, func(fr *http2.Framer, henc *hpack.Encoder, id uint32) error {
		block := henc.AppendFields(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":path", Value: overloadGenPage(legit + int(id/2)%attackPages).Path},
		})
		if err := fr.WriteHeaders(id, true, true, block); err != nil {
			return err
		}
		return fr.WriteRSTStream(id, http2.ErrCodeCancel)
	})
	pings := attack(t, srv, func(fr *http2.Framer, _ *hpack.Encoder, _ uint32) error {
		return fr.WritePing(false, [8]byte{'f', 'l', 'o', 'o', 'd'})
	})

	var tap calmTap
	rc := NewResilientClient(func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return &tapConn{Conn: cEnd, tap: &tap}, nil
	}, device.Laptop, nil, RetryPolicy{})
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < legit; i++ {
		if _, err := rc.FetchContext(ctx, overloadGenPage(i).Path); err != nil {
			t.Errorf("legit fetch %d: %v", i, err)
		}
	}
	if n, g := tap.calmRSTs.Load(), tap.goAways.Load(); n != 0 || g != 0 {
		t.Errorf("legit connection read %d ENHANCE_YOUR_CALM resets and %d GOAWAYs, want none", n, g)
	}

	for name, killed := range map[string]<-chan error{"rapid-reset": resets, "ping-flood": pings} {
		if err := <-killed; err != nil {
			t.Errorf("%s attacker: %v", name, err)
		}
	}
	if st := srv.OverloadStats(); st.AbuseGoAways < 2 {
		t.Errorf("AbuseGoAways = %d, want both attackers counted", st.AbuseGoAways)
	}
}

// attack runs an attacker on a connection of its own: after the
// handshake it writes unit four times a millisecond, on stream ids 1,
// 3, 5…, until the server stops reading. The channel yields nil once the
// attacker has read GOAWAY(ENHANCE_YOUR_CALM) and stopped, or else
// what it read instead.
func attack(t *testing.T, srv *Server, unit func(fr *http2.Framer, henc *hpack.Encoder, id uint32) error) <-chan error {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	fr := http2.NewFramer(cEnd, cEnd)
	// net.Pipe has no buffer, but the server writes its SETTINGS only
	// after reading the preface, so this strict alternation cannot
	// deadlock.
	cEnd.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.WriteString(cEnd, http2.ClientPreface); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	if f, err := fr.ReadFrame(); err != nil || f.Type != http2.FrameSettings {
		t.Fatalf("attacker handshake: %v %v", f.Type, err)
	}
	if err := fr.WriteSettingsAck(); err != nil {
		t.Fatal(err)
	}
	cEnd.SetWriteDeadline(time.Time{})

	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		henc := hpack.NewEncoder()
		for id := uint32(1); unit(fr, henc, id) == nil; id += 2 {
			if id%8 == 7 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	killed := make(chan error, 1)
	go func() {
		err := readUntilGoAway(fr) // under the handshake's read deadline
		cEnd.Close()               // stops the writer
		<-wrote
		killed <- err
	}()
	return killed
}

// readUntilGoAway reads frames up to the first GOAWAY and returns nil
// if it carries ENHANCE_YOUR_CALM, or else what came instead.
func readUntilGoAway(fr *http2.Framer) error {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return err
		}
		if f.Type != http2.FrameGoAway {
			continue
		}
		if code := http2.ErrCode(binary.BigEndian.Uint32(f.Payload[4:8])); code != http2.ErrCodeEnhanceYourCalm {
			return http2.GoAwayError{Code: code}
		}
		return nil
	}
}

// calmTap counts what the abuse ledger sends on the connections it
// watches, RST_STREAM(ENHANCE_YOUR_CALM) and GOAWAY frames, and the
// PING ACKs that answer the client's keepalive.
type calmTap struct{ calmRSTs, goAways, pingAcks atomic.Int32 }

// tapConn parses the server's frames as its client reads them, which
// only the client's read loop does.
type tapConn struct {
	net.Conn
	tap *calmTap
	buf []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf = append(c.buf, p[:n]...)
	for len(c.buf) >= 9 {
		end := 9 + (int(c.buf[0])<<16 | int(c.buf[1])<<8 | int(c.buf[2]))
		if len(c.buf) < end {
			break
		}
		switch http2.FrameType(c.buf[3]) {
		case http2.FrameRSTStream:
			if http2.ErrCode(binary.BigEndian.Uint32(c.buf[9:end])) == http2.ErrCodeEnhanceYourCalm {
				c.tap.calmRSTs.Add(1)
			}
		case http2.FrameGoAway:
			c.tap.goAways.Add(1)
		case http2.FramePing:
			if c.buf[4]&http2.FlagAck != 0 {
				c.tap.pingAcks.Add(1)
			}
		}
		c.buf = c.buf[end:]
	}
	return n, err
}

// TestResetFreesGenerationWorker: a stream reset while its generation
// holds the only worker (for 3 s) gives the worker back at once — the
// stream's context ends with the RST_STREAM, and the hold waits on it.
// A second request, for a page that generates in a few milliseconds, is
// then admitted and served in well under the hold.
func TestResetFreesGenerationWorker(t *testing.T) {
	const hold = 3 * time.Second
	long, short := overloadGenPage(0), sizedGenPage(1, 16, 1)
	srv := newOverloadServer(t, overload.Config{
		MaxGenWorkers: 1,
		GenWallScale:  holdScale(t, long, hold),
	})
	srv.AddPage(long)
	srv.AddPage(short)

	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	cl, err := NewClient(cEnd, device.Laptop, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reset := make(chan error, 1)
	go func() {
		_, err := cl.FetchContext(ctx, long.Path)
		reset <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if inflight, _ := srv.Overload().Pool().Load(); inflight == 1 && srv.OverloadStats().GenRuns == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first generation never took the worker")
		}
	}
	cancel() // DoContext resets the stream
	if err := <-reset; err == nil {
		t.Fatal("the reset fetch succeeded")
	}

	start := time.Now()
	res, err := cl.Fetch(short.Path)
	if err != nil {
		t.Fatalf("fetch after the reset: %v", err)
	}
	if took := time.Since(start); took > hold/4 {
		t.Errorf("fetch after the reset took %v, want well under the %v hold", took, hold)
	}
	if res.Mode != ModeTraditional {
		t.Errorf("mode = %q", res.Mode)
	}
	if st := srv.OverloadStats(); st.GenRuns != 2 || st.QueueTimeouts != 0 {
		t.Errorf("GenRuns %d, QueueTimeouts %d: want both requests admitted", st.GenRuns, st.QueueTimeouts)
	}
}

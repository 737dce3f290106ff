package http2

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/hpack"
)

// ClientPreface is the fixed sequence every client connection begins
// with (RFC 9113 §3.4).
const ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

const (
	defaultWindowSize = 65535
	handshakeTimeout  = 10 * time.Second // for the peer's first SETTINGS

	// maxPeerStreams caps peer-initiated concurrent streams.
	maxPeerStreams = 100

	// drainPeriod bounds how long teardown and shutdown wait for
	// already-queued frames (the GOAWAY in particular) to flush to a
	// slow link before the transport dies. Callers with a harder
	// deadline use CloseContext, whose context deadline overrides it.
	drainPeriod = 200 * time.Millisecond

	// maxHeaderBlockBytes caps an assembled header block across
	// HEADERS + CONTINUATION frames.
	maxHeaderBlockBytes = 1 << 20

	// maxScratchFields is the longest decoded header list whose storage
	// the read loop keeps for the next block; one outsized block must
	// not pin its list for the connection's life.
	maxScratchFields = 64
)

// Config carries the local endpoint's preferences for a connection.
// The zero value is usable.
type Config struct {
	// GenAbility is the capability advertised in SETTINGS_GEN_ABILITY.
	// GenNone suppresses the setting entirely, modelling a legacy
	// endpoint that does not know the extension.
	GenAbility GenAbility

	// ImageModelID and TextModelID, when nonzero, are advertised in
	// SETTINGS_GEN_IMAGE_MODEL / SETTINGS_GEN_TEXT_MODEL (§7 model
	// negotiation): a server names the models its prompts are tuned
	// for. Use genai.ModelID to derive them from registry names.
	ImageModelID uint32
	TextModelID  uint32

	// InitialWindowSize is the advertised per-stream receive window.
	// Zero means the protocol default of 65535.
	InitialWindowSize uint32

	// KeepAliveInterval, when positive, enables health checks: after
	// this much frame silence (a client: with a stream open) the
	// endpoint sends PING and, if no ACK arrives within another
	// interval, closes the dead peer's connection.
	KeepAliveInterval time.Duration

	// OnStreamRefused, when set, is called each time a peer-initiated
	// stream is rejected with REFUSED_STREAM at the concurrent-stream
	// limit — the overload-observability hook. It runs on the frame
	// reader goroutine and must not block.
	OnStreamRefused func()

	// OnAbuse, when set, receives every abuse-ledger escalation
	// (action > AbuseNone), including one AbuseCalm per stream refused
	// on a flagged connection. It runs on the frame reader goroutine
	// and must not block.
	OnAbuse func(AbuseKind, AbuseAction)
}

func (c Config) initialWindow() int32 {
	if c.InitialWindowSize == 0 || c.InitialWindowSize > 1<<31-1 {
		return defaultWindowSize
	}
	return int32(c.InitialWindowSize)
}

// peerState holds the peer's most recent SETTINGS values.
type peerState struct {
	maxFrameSize  uint32
	initialWindow int32
	maxStreams    uint32
	genAbility    GenAbility
	genAdvertised bool
	imageModelID  uint32
	textModelID   uint32
}

// conn is the shared connection machinery beneath both the server and
// client endpoints.
type conn struct {
	netConn net.Conn
	aw      *asyncWriter
	fr      *Framer
	cfg     Config
	server  bool

	// wmu serializes all frame writes and guards henc, whose dynamic
	// table must evolve in frame emission order.
	wmu  sync.Mutex
	henc *hpack.Encoder

	// openMu serializes client stream allocation together with the
	// HEADERS write that opens it on the wire. RFC 9113 §5.1.1 requires
	// locally initiated stream ids to reach the peer in increasing
	// order; allocating under mu but writing under wmu leaves a window
	// where two concurrent requests emit their HEADERS swapped. Held
	// before mu and wmu, never while holding either.
	openMu sync.Mutex

	// hblock is the reusable header-block encode scratch, guarded by
	// wmu like henc.
	hblock []byte

	// hdec and hfields are used only by the read loop: every header
	// block decodes into hfields, and the stream it belongs to copies
	// the fields out before the next block overwrites them.
	hdec    *hpack.Decoder
	hfields []hpack.HeaderField

	// lastFrame is the UnixNano time of the last frame received,
	// maintained by the read loop for keepalive idleness checks.
	lastFrame atomic.Int64

	connSend *sendFlow // connection-level send window

	recvMu   sync.Mutex
	connRecv recvFlow // connection-level receive accounting

	mu          sync.Mutex
	streams     map[uint32]*Stream
	nextID      uint32 // next locally initiated stream id
	lastPeerID  uint32 // highest peer-initiated stream id seen
	peer        peerState
	peerSeen    bool
	goAway      *GoAwayError
	closeErr    error
	sentGoAway  bool
	peerSeenCh  chan struct{}
	doneCh      chan struct{}
	doneOnce    sync.Once // teardown runs on the read loop, Close and keepalive
	pings       map[[8]byte]chan struct{}
	peerStreams uint32 // live peer-initiated streams (server side)

	// hooks are a client connection's cancel hooks, one for each
	// context a stream of it was opened under (see hookContext), and
	// stopped the Done channels of the last hooks stopped with their
	// streams, the oldest at stopped[nstopped%len(stopped)].
	hooks    []cancelHook
	stopped  [4]<-chan struct{}
	nstopped int

	// abuse scores protocol misbehaviour on served connections; nil
	// on the client role or when the policy is Disabled.
	abuse *abuseLedger

	// handler receives peer-initiated streams (server role); inline is
	// the same handler when it can also answer on the read loop.
	handler Handler
	inline  InlineHandler

	// spare is the Stream of the last exchange that ended cleanly, for
	// the connection's next stream to reuse. On a server it is the last
	// request answered on the read loop, and only the read loop touches
	// it. On a client it is the last response ReadAllBody took to its
	// end (see retire), guarded by mu, and reusable once frames reaches
	// spareAt: the read loop may have looked it up before it left
	// c.streams, and is done with it when it is done with that frame.
	spare   *Stream
	spareAt uint64

	// frames counts the read loop's frames twice, once before and once
	// after it handles each, so it is odd while the loop may hold a
	// *Stream it looked up.
	frames atomic.Uint64

	// idle hands a declined stream to the handler goroutine parked on
	// it, if one is; parked says one is, or is about to be. A handler
	// goroutine that finishes parks unless another has, so a connection
	// keeps at most one, its stack grown by the requests it served.
	idle   chan *Stream
	parked atomic.Bool
}

func newConn(nc net.Conn, cfg Config, server bool) *conn {
	aw := newAsyncWriter(nc)
	c := &conn{
		netConn:    nc,
		aw:         aw,
		fr:         NewFramer(aw, nc),
		cfg:        cfg,
		server:     server,
		henc:       hpack.NewEncoder(),
		hdec:       hpack.NewDecoder(0),
		connSend:   newSendFlow(defaultWindowSize),
		streams:    make(map[uint32]*Stream),
		peerSeenCh: make(chan struct{}),
		doneCh:     make(chan struct{}),
		pings:      make(map[[8]byte]chan struct{}),
	}
	c.connRecv = newRecvFlow(defaultWindowSize)
	c.peer = peerState{
		maxFrameSize:  minMaxFrameSize,
		initialWindow: defaultWindowSize,
		maxStreams:    1<<32 - 1,
	}
	if server {
		c.nextID = 2
		c.idle = make(chan *Stream)
		c.abuse = new(abuseLedger)
	} else {
		c.nextID = 1
	}
	return c
}

// initialSettings builds this endpoint's first SETTINGS frame.
func (c *conn) initialSettings() []Setting {
	s := []Setting{
		{SettingMaxFrameSize, minMaxFrameSize},
		{SettingInitialWindowSize, uint32(c.cfg.initialWindow())},
		{SettingMaxConcurrentStreams, maxPeerStreams},
		{SettingEnablePush, 0},
	}
	if c.cfg.GenAbility != GenNone {
		s = append(s, Setting{SettingGenAbility, uint32(c.cfg.GenAbility)})
	}
	if c.cfg.ImageModelID != 0 {
		s = append(s, Setting{SettingGenImageModel, c.cfg.ImageModelID})
	}
	if c.cfg.TextModelID != 0 {
		s = append(s, Setting{SettingGenTextModel, c.cfg.TextModelID})
	}
	return s
}

// sendInitial writes the initial SETTINGS frame and, if the
// configured receive window exceeds the default, grows the connection
// window with an immediate WINDOW_UPDATE.
func (c *conn) sendInitial() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.fr.WriteSettings(c.initialSettings()...); err != nil {
		return err
	}
	if iw := c.cfg.initialWindow(); iw > defaultWindowSize {
		incr := uint32(iw - defaultWindowSize)
		c.recvMu.Lock()
		c.connRecv.granted += int32(incr)
		c.connRecv.target = iw
		c.recvMu.Unlock()
		return c.fr.WriteWindowUpdate(0, incr)
	}
	return nil
}

// waitPeerSettings blocks until the peer's first SETTINGS frame has
// been processed, the connection dies, or the handshake times out.
func (c *conn) waitPeerSettings() error {
	select {
	case <-c.peerSeenCh:
		return nil
	case <-c.doneCh:
		return c.closeError()
	case <-time.After(handshakeTimeout):
		return connError(ErrCodeSettingsTimeout, "no SETTINGS from peer")
	}
}

// Negotiated returns the generative ability shared by both endpoints
// (paper §3: both sides must advertise support, otherwise GenNone).
func (c *conn) negotiated() GenAbility {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.negotiatedLocked()
}

func (c *conn) negotiatedLocked() GenAbility { return c.cfg.GenAbility.Intersect(c.peer.genAbility) }

// peerGenAbility returns what the peer advertised, and whether it
// advertised the setting at all.
func (c *conn) peerGenAbility() (GenAbility, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer.genAbility, c.peer.genAdvertised
}

// peerModelIDs returns the peer's advertised model identifiers (§7
// model negotiation); zero means not advertised.
func (c *conn) peerModelIDs() (image, text uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer.imageModelID, c.peer.textModelID
}

func (c *conn) closeError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return c.closeErr
	}
	return errors.New("http2: connection closed")
}

// readLoop consumes frames until the connection dies. It owns hdec
// and all read-path state transitions.
func (c *conn) readLoop() {
	err := c.readFrames()
	c.teardown(err)
}

func (c *conn) readFrames() error {
	sawSettings := false
	for {
		fr, err := c.fr.ReadFrame()
		if err != nil {
			if ce, ok := err.(ConnectionError); ok {
				c.abort(ce)
				return err
			}
			// Anything that is not a protocol violation is a transport
			// failure: surface it typed so callers can classify it as
			// retryable.
			return &TransportError{Op: "read", Err: err}
		}
		if c.cfg.KeepAliveInterval > 0 {
			// keepAliveLoop is lastFrame's only reader.
			c.lastFrame.Store(time.Now().UnixNano())
		}
		if !sawSettings {
			if fr.Type != FrameSettings || fr.Has(FlagAck) {
				err := connError(ErrCodeProtocol, "first frame %v, want SETTINGS", fr.Type)
				c.abort(err)
				return err
			}
			sawSettings = true
		}
		c.frames.Add(1)
		if err := c.dispatch(fr); err != nil {
			switch e := err.(type) {
			case StreamError:
				c.resetStream(e.StreamID, e.Code)
				if st := c.lookupStream(e.StreamID); st != nil {
					st.closeWithError(e)
					c.removeStream(e.StreamID)
				}
			case ConnectionError:
				c.abort(e)
				return e
			default:
				return err
			}
		}
		c.frames.Add(1)
	}
}

func (c *conn) dispatch(fr Frame) error {
	switch fr.Type {
	case FrameSettings:
		return c.onSettings(fr)
	case FrameHeaders:
		return c.onHeaders(fr)
	case FrameData:
		return c.onData(fr)
	case FrameWindowUpdate:
		return c.onWindowUpdate(fr)
	case FrameRSTStream:
		return c.onRSTStream(fr)
	case FramePing:
		return c.onPing(fr)
	case FrameGoAway:
		return c.onGoAway(fr)
	case FramePriority:
		if fr.StreamID == 0 {
			return connError(ErrCodeProtocol, "PRIORITY on stream 0")
		}
		if len(fr.Payload) != 5 {
			return streamError(fr.StreamID, ErrCodeFrameSize, "PRIORITY length %d", len(fr.Payload))
		}
		return nil // deprecated scheme: parseable, ignored
	case FramePushPromise:
		// We always advertise ENABLE_PUSH = 0.
		return connError(ErrCodeProtocol, "PUSH_PROMISE despite ENABLE_PUSH=0")
	case FrameContinuation:
		return connError(ErrCodeProtocol, "CONTINUATION without preceding HEADERS")
	default:
		return nil // unknown frame types are ignored (§4.1)
	}
}

func (c *conn) onSettings(fr Frame) error {
	if fr.StreamID != 0 {
		return connError(ErrCodeProtocol, "SETTINGS on stream %d", fr.StreamID)
	}
	if fr.Has(FlagAck) {
		if len(fr.Payload) != 0 {
			return connError(ErrCodeFrameSize, "SETTINGS ACK with payload")
		}
		return nil
	}
	// Each non-ACK SETTINGS obliges a settings walk plus an ACK write:
	// a flood of them is write amplification. Over budget we neither
	// apply nor ACK.
	if act, err := c.noteAbuse(AbuseSettingsFlood); err != nil {
		return err
	} else if act >= AbuseIgnore {
		return nil
	}
	settings, err := parseSettings(fr.Payload)
	if err != nil {
		return err
	}
	for _, s := range settings {
		if err := s.valid(); err != nil {
			return err
		}
	}
	c.mu.Lock()
	for _, s := range settings {
		switch s.ID {
		case SettingHeaderTableSize:
			c.wmu.Lock()
			c.henc.SetMaxDynamicTableSize(s.Val)
			c.wmu.Unlock()
		case SettingMaxFrameSize:
			c.peer.maxFrameSize = s.Val
		case SettingMaxConcurrentStreams:
			c.peer.maxStreams = s.Val
		case SettingInitialWindowSize:
			delta := int32(s.Val) - c.peer.initialWindow
			c.peer.initialWindow = int32(s.Val)
			for _, st := range c.streams {
				if !st.send.add(delta) {
					c.mu.Unlock()
					return connError(ErrCodeFlowControl, "INITIAL_WINDOW_SIZE overflow")
				}
			}
		case SettingGenAbility:
			c.peer.genAbility = GenAbility(s.Val)
			c.peer.genAdvertised = true
		case SettingGenImageModel:
			c.peer.imageModelID = s.Val
		case SettingGenTextModel:
			c.peer.textModelID = s.Val
		}
	}
	first := !c.peerSeen
	c.peerSeen = true
	c.mu.Unlock()
	if first {
		close(c.peerSeenCh)
	}

	c.wmu.Lock()
	err = c.fr.WriteSettingsAck()
	c.wmu.Unlock()
	return err
}

func (c *conn) onPing(fr Frame) error {
	if fr.StreamID != 0 {
		return connError(ErrCodeProtocol, "PING on stream %d", fr.StreamID)
	}
	if len(fr.Payload) != 8 {
		return connError(ErrCodeFrameSize, "PING length %d", len(fr.Payload))
	}
	var data [8]byte
	copy(data[:], fr.Payload)
	if fr.Has(FlagAck) {
		c.mu.Lock()
		ch := c.pings[data]
		delete(c.pings, data)
		c.mu.Unlock()
		if ch != nil {
			close(ch)
		}
		return nil
	}
	// Every non-ACK PING obliges an ACK write; over budget the ACKs
	// stop, removing the amplification a PING flood buys.
	if act, err := c.noteAbuse(AbusePingFlood); err != nil {
		return err
	} else if act >= AbuseIgnore {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fr.WritePing(true, data)
}

func (c *conn) onGoAway(fr Frame) error {
	if len(fr.Payload) < 8 {
		return connError(ErrCodeFrameSize, "GOAWAY length %d", len(fr.Payload))
	}
	ga := &GoAwayError{
		LastStreamID: uint32(fr.Payload[0]&0x7f)<<24 | uint32(fr.Payload[1])<<16 |
			uint32(fr.Payload[2])<<8 | uint32(fr.Payload[3]),
		Code:      ErrCode(uint32(fr.Payload[4])<<24 | uint32(fr.Payload[5])<<16 | uint32(fr.Payload[6])<<8 | uint32(fr.Payload[7])),
		DebugData: string(fr.Payload[8:]),
	}
	c.mu.Lock()
	c.goAway = ga
	var above []*Stream
	for id, st := range c.streams {
		if c.initiatedLocally(id) && id > ga.LastStreamID {
			above = append(above, st)
		}
	}
	c.mu.Unlock()
	for _, st := range above {
		st.closeWithError(*ga)
	}
	return nil
}

func (c *conn) initiatedLocally(id uint32) bool {
	if c.server {
		return id%2 == 0
	}
	return id%2 == 1
}

func (c *conn) onWindowUpdate(fr Frame) error {
	if len(fr.Payload) != 4 {
		return connError(ErrCodeFrameSize, "WINDOW_UPDATE length %d", len(fr.Payload))
	}
	// WINDOW_UPDATE is the cheapest frame to spam: it carries no data
	// and consumes no window. Over budget the updates are dropped
	// (not applied) — that only stalls sends to the flooding peer.
	// Protocol validation still runs on dropped frames: an abuse-rate
	// drop must not mask a zero increment or a window overflow, which
	// RFC 9113 §6.9 makes errors regardless of whether the increment
	// would have been applied.
	act, err := c.noteAbuse(AbuseWindowUpdateFlood)
	if err != nil {
		return err
	}
	drop := act >= AbuseIgnore
	incr := uint32(fr.Payload[0]&0x7f)<<24 | uint32(fr.Payload[1])<<16 |
		uint32(fr.Payload[2])<<8 | uint32(fr.Payload[3])
	if incr == 0 {
		if fr.StreamID == 0 {
			return connError(ErrCodeProtocol, "WINDOW_UPDATE of 0")
		}
		return streamError(fr.StreamID, ErrCodeProtocol, "WINDOW_UPDATE of 0")
	}
	if fr.StreamID == 0 {
		if drop {
			if c.connSend.wouldOverflow(int32(incr)) {
				return connError(ErrCodeFlowControl, "connection window overflow")
			}
			return nil
		}
		if !c.connSend.add(int32(incr)) {
			return connError(ErrCodeFlowControl, "connection window overflow")
		}
		return nil
	}
	st := c.lookupStream(fr.StreamID)
	if st == nil {
		return nil // likely a recently closed stream; ignore
	}
	if drop {
		if st.send.wouldOverflow(int32(incr)) {
			return streamError(fr.StreamID, ErrCodeFlowControl, "stream window overflow")
		}
		return nil
	}
	if !st.send.add(int32(incr)) {
		return streamError(fr.StreamID, ErrCodeFlowControl, "stream window overflow")
	}
	return nil
}

func (c *conn) onRSTStream(fr Frame) error {
	if fr.StreamID == 0 {
		return connError(ErrCodeProtocol, "RST_STREAM on stream 0")
	}
	if len(fr.Payload) != 4 {
		return connError(ErrCodeFrameSize, "RST_STREAM length %d", len(fr.Payload))
	}
	code := ErrCode(uint32(fr.Payload[0])<<24 | uint32(fr.Payload[1])<<16 |
		uint32(fr.Payload[2])<<8 | uint32(fr.Payload[3]))
	if st := c.lookupStream(fr.StreamID); st != nil {
		// Rapid reset: the peer cancels its own stream before we sent
		// any response DATA — it cost them one frame pair and cost us
		// a handler dispatch. Completed streams have already left the
		// map, so ordinary request/response turnover is never scored.
		rapid := c.server && !c.initiatedLocally(fr.StreamID) && !st.wroteData.Load()
		st.closeWithError(StreamError{StreamID: fr.StreamID, Code: code, Reason: "reset by peer"})
		c.removeStream(fr.StreamID)
		if rapid {
			if _, err := c.noteAbuse(AbuseRapidReset); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *conn) onData(fr Frame) error {
	if fr.StreamID == 0 {
		return connError(ErrCodeProtocol, "DATA on stream 0")
	}
	// Zero-length DATA without END_STREAM consumes no flow-control
	// window, so flow control never pushes back on a flood of it —
	// the ledger does.
	if fr.Length == 0 && !fr.Has(FlagEndStream) {
		if _, err := c.noteAbuse(AbuseEmptyDataFlood); err != nil {
			return err
		}
	}
	// The whole payload, padding included, consumes flow-control
	// window (§6.9.1).
	flowLen := int32(fr.Length)
	c.recvMu.Lock()
	ok := c.connRecv.onData(flowLen)
	c.recvMu.Unlock()
	if !ok {
		return connError(ErrCodeFlowControl, "connection flow window exceeded")
	}
	data, err := stripPadding(fr.FrameHeader, fr.Payload)
	if err != nil {
		return err
	}
	st := c.lookupStream(fr.StreamID)
	if st == nil {
		// Unknown stream: return the window, then report the error.
		c.returnConnWindow(flowLen)
		return streamError(fr.StreamID, ErrCodeStreamClosed, "DATA on unknown stream")
	}
	return st.onData(data, flowLen, fr.Has(FlagEndStream))
}

// returnConnWindow refunds window consumed by data that was never
// delivered to a stream.
func (c *conn) returnConnWindow(n int32) {
	c.recvMu.Lock()
	incr := c.connRecv.onConsume(n)
	c.recvMu.Unlock()
	if incr > 0 {
		c.wmu.Lock()
		c.fr.WriteWindowUpdate(0, uint32(incr))
		c.wmu.Unlock()
	}
}

// onHeaders assembles the full header block (HEADERS plus any
// CONTINUATION frames) and routes it.
func (c *conn) onHeaders(fr Frame) error {
	if fr.StreamID == 0 {
		return connError(ErrCodeProtocol, "HEADERS on stream 0")
	}
	payload, err := stripPadding(fr.FrameHeader, fr.Payload)
	if err != nil {
		return err
	}
	payload, err = stripPriority(fr.FrameHeader, payload)
	if err != nil {
		return err
	}
	// A block that ends in this frame is decoded where it lies: the
	// decoder copies every string out of it. Only a block continued in
	// later frames outlives the framer's read buffer and is assembled.
	block := payload
	endHeaders := fr.Has(FlagEndHeaders)
	if !endHeaders {
		block = append([]byte(nil), payload...)
	}
	contFrames, emptyConts := 0, 0
	for !endHeaders {
		cont, err := c.fr.ReadFrame()
		if err != nil {
			return err
		}
		if cont.Type != FrameContinuation || cont.StreamID != fr.StreamID {
			return connError(ErrCodeProtocol, "expected CONTINUATION for stream %d, got %v", fr.StreamID, cont.FrameHeader)
		}
		contFrames++
		if len(cont.Payload) == 0 {
			emptyConts++
		}
		if contFrames > maxContinuationFrames || emptyConts > maxEmptyContinuations {
			// Chains of tiny or empty CONTINUATION frames tie up the
			// read loop without ever tripping the byte cap below; one
			// over-cap chain is already conclusive misbehaviour.
			c.noteAbuse(AbuseContinuationFlood)
			return connError(ErrCodeEnhanceYourCalm, "continuation flood: %d frames (%d empty)", contFrames, emptyConts)
		}
		block = append(block, cont.Payload...)
		if len(block) > maxHeaderBlockBytes {
			// Unbounded CONTINUATION streams are a memory-exhaustion
			// vector; cap the assembled block.
			return connError(ErrCodeEnhanceYourCalm, "header block exceeds %d bytes", maxHeaderBlockBytes)
		}
		endHeaders = cont.Has(FlagEndHeaders)
	}
	fields, err := c.hdec.DecodeAppend(c.hfields[:0], block)
	if err != nil {
		return connError(ErrCodeCompression, "hpack: %v", err)
	}
	if cap(fields) <= maxScratchFields {
		c.hfields = fields
	}
	endStream := fr.Has(FlagEndStream)

	if st := c.lookupStream(fr.StreamID); st != nil {
		return st.onHeaders(fields, endStream)
	}
	if c.server {
		if c.initiatedLocally(fr.StreamID) {
			// A client must never address even stream ids (§5.1.1).
			return connError(ErrCodeProtocol, "client used server-initiated stream id %d", fr.StreamID)
		}
		return c.acceptStream(fr.StreamID, fields, endStream)
	}
	return streamError(fr.StreamID, ErrCodeStreamClosed, "HEADERS on unknown stream")
}

// acceptStream admits a new peer-initiated stream on the server side,
// in the stream the last inline reply left spare if there is one. A
// request that is complete (no body to come) is first offered to the
// handler here, on the read loop; see InlineHandler. That attempt is not
// in the stream map — nothing but the read loop, which is busy with it,
// could look it up — and a stream enters the map only on its way to a
// handler goroutine.
func (c *conn) acceptStream(id uint32, fields []hpack.HeaderField, endStream bool) error {
	c.mu.Lock()
	if id%2 == 0 {
		c.mu.Unlock()
		return connError(ErrCodeProtocol, "client used even stream id %d", id)
	}
	if id <= c.lastPeerID {
		c.mu.Unlock()
		return connError(ErrCodeProtocol, "stream id %d not increasing", id)
	}
	c.lastPeerID = id
	if c.abuse != nil {
		if kind, flagged := c.abuse.flagged(); flagged {
			// Calm-flagged connection: shed the stream here, before a
			// handler goroutine or a generation worker is committed.
			// The refusal itself is scored as continued abuse of the
			// flagging kind, so a peer that keeps opening streams
			// escalates itself to GOAWAY.
			c.mu.Unlock()
			if _, err := c.noteAbuse(kind); err != nil {
				return err
			}
			return streamError(id, ErrCodeEnhanceYourCalm, "connection flagged for %v abuse", kind)
		}
	}
	if c.peerStreams >= maxPeerStreams {
		c.mu.Unlock()
		if c.cfg.OnStreamRefused != nil {
			c.cfg.OnStreamRefused()
		}
		return streamError(id, ErrCodeRefusedStream, "concurrent stream limit")
	}
	if c.sentGoAway {
		c.mu.Unlock()
		return streamError(id, ErrCodeRefusedStream, "connection is shutting down")
	}
	st := c.spare
	if st == nil {
		st = new(Stream)
	}
	c.spare = nil
	st.init(c, id, c.peer.initialWindow)
	st.setHeadersLocked(fields) // not yet shared
	st.recvEnded = endStream
	err := st.initRequest()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	st.rw.stream = st

	if endStream && c.inline != nil && c.serveInline(st) {
		return nil
	}
	c.mu.Lock()
	err = c.closeErr
	if err == nil {
		c.streams[id] = st
		c.peerStreams++
	}
	c.mu.Unlock()
	if err != nil {
		st.closeWithError(err) // torn down meanwhile: the handler finds it dead
	}
	select {
	case c.idle <- st:
	default:
		go c.runHandler(st)
	}
	return nil
}

// serveInline offers st's request to the inline handler and reports
// whether the stream is finished with. It runs on the read loop, so
// everything it reaches must return without waiting: TryServeSWW by
// contract, TryRespond by construction. A handler that claims to have
// served but sent no complete response is treated as having declined.
//
// A served stream has nothing left to finish — its reply is complete,
// its request had no body, it was never in the map — and becomes the
// connection's spare. Two kinds are left to the garbage collector
// instead: one whose handler asked for its context, which is cancelled
// here, and one whose handler panicked.
func (c *conn) serveInline(st *Stream) (served bool) {
	w := &st.rw
	defer func() {
		if r := recover(); r != nil {
			c.handlerPanicked(st, w) // the stream is dead: nothing more is sent on it
			served = true
		}
	}()
	if !c.inline.TryServeSWW(w, &st.req) || !w.finished {
		return false
	}
	if st.ctx.handedOut() {
		st.ctx.end()
	} else {
		c.spare = st
	}
	return true
}

// runHandler serves st on a goroutine of its own, then each stream
// acceptStream hands it while it is the connection's parked handler.
// It returns when another handler is parked or the connection dies.
func (c *conn) runHandler(st *Stream) {
	for st != nil {
		c.serveStream(st)
		st = c.park()
	}
}

func (c *conn) serveStream(st *Stream) {
	w := &st.rw
	defer func() {
		if r := recover(); r != nil {
			c.handlerPanicked(st, w)
		}
		c.finishServerStream(st, w)
	}()
	c.handler.ServeSWW(w, &st.req)
}

// park waits on idle for the next declined stream, unless another
// handler is parked, and returns nil once the connection dies.
func (c *conn) park() *Stream {
	if !c.parked.CompareAndSwap(false, true) {
		return nil
	}
	select {
	case st := <-c.idle:
		c.parked.Store(false)
		return st
	case <-c.doneCh:
		return nil
	}
}

// handlerPanicked turns a handler panic into a 500 (if no response
// has begun) and RST_STREAM(INTERNAL_ERROR); the connection lives on.
func (c *conn) handlerPanicked(st *Stream, w *ResponseWriter) {
	if !w.wroteHeaders {
		w.WriteHeaders(500, hpack.HeaderField{Name: "content-type", Value: "text/plain"})
	}
	c.resetStream(st.id, ErrCodeInternal)
	st.closeWithError(streamError(st.id, ErrCodeInternal, "handler panic"))
}

func (c *conn) finishServerStream(st *Stream, w *ResponseWriter) {
	if !w.wroteHeaders {
		w.WriteHeaders(200)
	}
	w.Finish()
	st.ctx.end()
	c.mu.Lock()
	if _, live := c.streams[st.id]; live {
		delete(c.streams, st.id)
		c.peerStreams--
	}
	c.mu.Unlock()
	st.abandon() // whatever of the request body the handler left unread
}

func (c *conn) lookupStream(id uint32) *Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[id]
}

func (c *conn) removeStream(id uint32) {
	c.mu.Lock()
	c.removeLocked(id)
	c.mu.Unlock()
}

// retire ends a client exchange whose body ReadAllBody took to a clean
// END_STREAM: the stream leaves c.streams and becomes the spare. A
// stream that has left already (a reset, a teardown), that a fired
// cancel hook claimed, or whose Context was handed out is left to the
// garbage collector instead. Nothing may touch st after this.
func (c *conn) retire(st *Stream) {
	c.mu.Lock()
	if c.streams[st.id] == st && !st.canceled && !st.ctx.handedOut() {
		c.spare, c.spareAt = st, (c.frames.Load()+1)&^1
	}
	c.removeLocked(st.id)
	c.mu.Unlock()
}

// removeLocked is removeStream with c.mu held.
func (c *conn) removeLocked(id uint32) {
	if st, ok := c.streams[id]; ok {
		delete(c.streams, id)
		if c.server && id%2 == 1 {
			c.peerStreams--
		}
		if st.hookDone != nil {
			c.leaveHook(st.hookDone)
		}
	}
}

// A cancelHook cancels the streams of a client connection opened
// under one context when that context ends. done is the context's
// Done channel, stop the context.AfterFunc registration, and live the
// number of streams in c.streams hooked on done. keep marks a context
// that came back after its first hook was stopped: its hook stays
// registered when its streams have all left, for the next stream
// under it.
type cancelHook struct {
	done <-chan struct{}
	stop func() bool
	live int
	keep bool
}

// hookContext cancels st when ctx ends, for as long as st is in
// c.streams. Streams under one context share one hook. Most contexts
// carry one exchange and end with it: the first hook on a context is
// stopped when its streams have left, as a per-exchange hook was, so
// the context's end runs nothing. A context that comes back while it
// is among the last four so stopped — the edge's shared upstream
// context — gets a hook that stays, and the streams after it register
// none. A stream that has already left registers nothing.
func (c *conn) hookContext(st *Stream, ctx context.Context) {
	c.mu.Lock()
	c.hookLocked(st, ctx)
	c.mu.Unlock()
}

// hookLocked is hookContext with c.mu held. A hook whose context has
// just ended may still be in the table, its callback waiting for c.mu;
// a stream that joins it is cancelled by that callback.
func (c *conn) hookLocked(st *Stream, ctx context.Context) {
	if c.streams[st.id] != st {
		return
	}
	done := ctx.Done()
	st.hookDone = done
	if i := c.hookAt(done); i >= 0 {
		c.hooks[i].live++
		return
	}
	stop := context.AfterFunc(ctx, func() { c.cancelHooked(ctx) })
	keep := slices.Contains(c.stopped[:], done)
	c.hooks = append(c.hooks, cancelHook{done: done, stop: stop, live: 1, keep: keep})
}

// leaveHook books a stream hooked on done leaving c.streams, with c.mu
// held. When it was the hook's last, a hook not kept is stopped, and a
// kept one stops every other hook no stream waits on, so the table
// holds the hooks in use and at most one idle one. A hook whose stop
// fails has fired: its callback removes it.
func (c *conn) leaveHook(done <-chan struct{}) {
	i := c.hookAt(done)
	if i < 0 {
		return
	}
	if c.hooks[i].live--; c.hooks[i].live > 0 {
		return
	}
	if !c.hooks[i].keep {
		c.stopped[c.nstopped%len(c.stopped)] = done
		c.nstopped++
		if c.hooks[i].stop() {
			c.hooks = slices.Delete(c.hooks, i, i+1)
		}
		return
	}
	n := 0
	for j, h := range c.hooks {
		if j == i || h.live > 0 || !h.stop() {
			c.hooks[n] = h
			n++
		}
	}
	clear(c.hooks[n:])
	c.hooks = c.hooks[:n]
}

// hookAt returns the index of c's hook on done, -1 when it holds none.
// Called with c.mu held.
func (c *conn) hookAt(done <-chan struct{}) int {
	for i := range c.hooks {
		if c.hooks[i].done == done {
			return i
		}
	}
	return -1
}

// hookedOn reports whether s is hooked on done.
func (s *Stream) hookedOn(done <-chan struct{}) bool {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.hookDone == done
}

// cancelHooked is the callback of ctx's hook: it drops the hook,
// unhooks every stream still hooked on ctx and cancels each after the
// unlock (Stream.cancel takes c.mu); each is marked canceled, so a
// body that ends meanwhile does not retire it for reuse. A cancelled
// stream leaves c.streams only after its RST_STREAM is queued, so no
// stream opened into its slot goes out ahead of the reset. A hook no
// stream waits on scans nothing.
func (c *conn) cancelHooked(ctx context.Context) {
	done := ctx.Done()
	var hooked []*Stream
	c.mu.Lock()
	if i := c.hookAt(done); i >= 0 {
		live := c.hooks[i].live
		c.hooks = slices.Delete(c.hooks, i, i+1)
		for _, st := range c.streams {
			if len(hooked) == live {
				break
			}
			if st.hookDone == done {
				st.hookDone, st.canceled = nil, true
				hooked = append(hooked, st)
			}
		}
	}
	c.mu.Unlock()
	if len(hooked) == 0 {
		return
	}
	err := fmt.Errorf("http2: request canceled: %w", context.Cause(ctx))
	for _, st := range hooked {
		st.cancel(err)
	}
}

// resetStream emits RST_STREAM; errors writing it are surfaced via
// the read loop's teardown instead.
func (c *conn) resetStream(id uint32, code ErrCode) {
	c.wmu.Lock()
	c.fr.WriteRSTStream(id, code)
	c.wmu.Unlock()
}

// abort sends GOAWAY for a connection-level error.
func (c *conn) abort(ce ConnectionError) {
	c.mu.Lock()
	last := c.lastPeerID
	already := c.sentGoAway
	c.sentGoAway = true
	c.mu.Unlock()
	if already {
		return
	}
	c.wmu.Lock()
	c.fr.WriteGoAway(last, ce.Code, []byte(ce.Reason))
	c.wmu.Unlock()
}

// teardown fails every stream and marks the connection dead.
func (c *conn) teardown(err error) {
	if err == nil || errors.Is(err, io.EOF) {
		err = ErrPeerClosed
	}
	c.mu.Lock()
	if c.closeErr == nil {
		c.closeErr = err
	}
	streams := make([]*Stream, 0, len(c.streams))
	for _, st := range c.streams {
		streams = append(streams, st)
	}
	c.streams = map[uint32]*Stream{}
	pings := c.pings
	c.pings = map[[8]byte]chan struct{}{}
	// A hook left registered would pin the connection to its context.
	for _, h := range c.hooks {
		h.stop()
	}
	c.hooks = nil
	clear(c.stopped[:])
	c.mu.Unlock()

	c.connSend.fail(err)
	for _, st := range streams {
		st.closeWithError(err)
	}
	for _, ch := range pings {
		close(ch)
	}
	c.doneOnce.Do(func() { close(c.doneCh) })
	// Stop accepting new frames but give already-queued ones (the
	// GOAWAY explaining this teardown, in particular) a moment to
	// reach the peer before the transport dies.
	c.aw.close()
	c.aw.drain(drainPeriod)
	c.netConn.Close()
}

// shutdown performs a graceful local close: GOAWAY(NO_ERROR) then
// closing the transport, draining for drainPeriod.
func (c *conn) shutdown() error { return c.shutdownContext(context.Background()) }

// shutdownContext is shutdown bounded by the caller's deadline: the
// GOAWAY drain waits until ctx expires (or drainPeriod when ctx
// carries no deadline), so slow links get the whole
// budget instead of a hard-coded flush window.
func (c *conn) shutdownContext(ctx context.Context) error {
	c.mu.Lock()
	last := c.lastPeerID
	already := c.sentGoAway
	c.sentGoAway = true
	c.mu.Unlock()
	if !already {
		c.wmu.Lock()
		c.fr.WriteGoAway(last, ErrCodeNo, nil)
		c.wmu.Unlock()
	}
	drain := drainPeriod
	if deadline, ok := ctx.Deadline(); ok {
		drain = time.Until(deadline)
	}
	c.aw.close()
	if drain > 0 {
		c.aw.drain(drain)
	}
	err := c.netConn.Close()
	c.teardown(ErrLocallyClosed)
	return err
}

// ping sends PING and waits for the ACK.
func (c *conn) ping(timeout time.Duration) error {
	var data [8]byte
	if _, err := rand.Read(data[:]); err != nil {
		return err
	}
	ch := make(chan struct{})
	c.mu.Lock()
	if c.closeErr != nil {
		err := c.closeErr
		c.mu.Unlock()
		return err
	}
	c.pings[data] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := c.fr.WritePing(false, data)
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-ch:
		c.mu.Lock()
		err := c.closeErr
		c.mu.Unlock()
		if err != nil {
			return err
		}
		return nil
	case <-c.doneCh:
		return c.closeError()
	case <-time.After(timeout):
		return fmt.Errorf("%w after %v", ErrPingTimeout, timeout)
	}
}

// keepAliveLoop runs the health check: whenever the peer has been
// silent for a full interval, round-trip a PING; a missing ACK means a
// dead or wedged peer, and the connection is torn down. An idle client
// connection sends none, so it spends no server's PING budget. The
// loop exits when the connection dies.
func (c *conn) keepAliveLoop() {
	interval := c.cfg.KeepAliveInterval
	if interval <= 0 {
		return
	}
	c.lastFrame.Store(time.Now().UnixNano())
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.doneCh:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		waiting := c.server || len(c.streams) > 0
		c.mu.Unlock()
		if !waiting || time.Since(time.Unix(0, c.lastFrame.Load())) < interval {
			continue // nothing waits on the peer, or traffic flowed recently
		}
		if err := c.ping(interval); err != nil {
			select {
			case <-c.doneCh: // already dead; teardown done elsewhere
			default:
				c.teardown(fmt.Errorf("http2: keepalive: %w", err))
			}
			return
		}
	}
}

// writeHeaderBlock encodes fields and emits HEADERS (+CONTINUATION)
// frames atomically with respect to other writers.
func (c *conn) writeHeaderBlock(streamID uint32, fields []hpack.HeaderField, endStream bool) error {
	c.mu.Lock()
	maxFrame := int(c.peer.maxFrameSize)
	c.mu.Unlock()

	c.wmu.Lock()
	defer c.wmu.Unlock()
	// Encode into the connection-owned scratch block (guarded by wmu,
	// like henc). The framer copies each chunk into the writer's buffer
	// before WriteHeaders returns, so reusing the scratch across
	// responses is safe.
	c.hblock = c.henc.AppendFields(c.hblock[:0], fields)
	block := c.hblock
	first := true
	for {
		chunk := block
		if len(chunk) > maxFrame {
			chunk = chunk[:maxFrame]
		}
		block = block[len(chunk):]
		endHeaders := len(block) == 0
		var err error
		if first {
			err = c.fr.WriteHeaders(streamID, endStream, endHeaders, chunk)
			first = false
		} else {
			err = c.fr.WriteContinuation(streamID, endHeaders, chunk)
		}
		if err != nil {
			return err
		}
		if endHeaders {
			return nil
		}
	}
}

// writeData sends data on the stream, honoring both flow-control
// windows and the peer's maximum frame size. Each chunk is copied into
// the writer's buffer before writeData returns.
func (c *conn) writeData(st *Stream, data []byte, endStream bool) error {
	if len(data) == 0 {
		if !endStream {
			return nil
		}
		c.wmu.Lock()
		defer c.wmu.Unlock()
		err := c.fr.WriteData(st.id, true, nil)
		if err == nil {
			st.wroteData.Store(true)
		}
		return err
	}
	for len(data) > 0 {
		c.mu.Lock()
		maxFrame := int(c.peer.maxFrameSize)
		c.mu.Unlock()
		want := len(data)
		if want > maxFrame {
			want = maxFrame
		}
		n, err := st.send.take(want)
		if err != nil {
			return err
		}
		m, err := c.connSend.take(n)
		if err != nil {
			return err
		}
		if m < n {
			st.send.add(int32(n - m)) // refund the difference
		}
		// A peer that grants window faster than it reads is waited for
		// here, with the window claimed but the write lock free: the read
		// loop needs wmu for its WINDOW_UPDATEs and acks.
		if err := c.aw.waitRoom(); err != nil {
			return err
		}
		if err := st.sendErr(); err != nil {
			// Reset while parked. The claim goes back to the window all
			// streams share; the stream's own died with it.
			c.connSend.add(int32(m))
			return err
		}
		chunk := data[:m]
		data = data[m:]
		end := endStream && len(data) == 0
		c.wmu.Lock()
		err = c.fr.WriteData(st.id, end, chunk)
		c.wmu.Unlock()
		if err != nil {
			return err
		}
		c.noteDataQueued(st)
	}
	return nil
}

// noteDataQueued records that a flow-consuming DATA frame of st has
// entered the writer queue. Only from here on is a reset of st a
// mid-response cancellation and not a rapid reset: a handler still
// parked on a closed window has sent the peer nothing.
func (c *conn) noteDataQueued(st *Stream) {
	st.wroteData.Store(true)
	if c.abuse != nil {
		// Flow-consuming DATA earns the peer WINDOW_UPDATE budget:
		// its future updates for this data are legitimate.
		c.abuse.noteDataSent()
	}
}

// headerBlockBound is an upper bound on the HPACK encoding of a
// response with these fields: every field a literal with a new name,
// no Huffman gain, both pending table-size updates. It lets tryRespond
// size the block before it encodes it; once encoded, a block has
// changed the dynamic table and can no longer be declined.
func headerBlockBound(fields []hpack.HeaderField) int {
	n := 16 * (len(fields) + 2) // per-field prefixes; :status; size updates
	for _, f := range fields {
		n += len(f.Name) + len(f.Value)
	}
	return n
}

// tryRespond is the never-waiting complete-response emitter behind
// ResponseWriter.TryRespond: HEADERS and one DATA frame carrying
// END_STREAM, or HEADERS carrying it when the body is empty — the
// frames Respond's long form would write, byte for byte — built in the
// writer's buffer under one hold of its lock, or nothing at all. It
// declines (false, no byte queued, no window kept, encoder untouched)
// when the body or the header block may not fit one frame, when either
// send window cannot cover the whole body now, and when the write lock
// is held or the writer has maxQueuedData waiting or is gone.
func (c *conn) tryRespond(st *Stream, status int, body []byte, fields []hpack.HeaderField) bool {
	c.mu.Lock()
	maxFrame := int(c.peer.maxFrameSize)
	c.mu.Unlock()
	n := len(body)
	if n > maxFrame || headerBlockBound(fields) > maxFrame {
		return false
	}
	// A dead stream's window is failed, so tryTake also declines those.
	if !st.send.tryTake(n) {
		return false
	}
	if !c.connSend.tryTake(n) {
		st.send.add(int32(n))
		return false
	}
	// A control frame written into a queue of maxQueuedBytes sleeps
	// holding wmu, so even the write lock is only tried; a frame being
	// written elsewhere at this instant declines the attempt too, which
	// costs a goroutine.
	locked := c.wmu.TryLock()
	if locked && !c.aw.tryLock() {
		c.wmu.Unlock()
		locked = false
	}
	if !locked {
		c.connSend.add(int32(n))
		st.send.add(int32(n))
		return false
	}
	// The HEADERS length is known only once the block is encoded, and
	// the block is encoded where it will be written from.
	b := c.aw.buf
	start := len(b)
	flags := FlagEndHeaders
	if n == 0 { // an empty body is no frame: HEADERS ends the stream
		flags |= FlagEndStream
	}
	b = appendFrameHeader(b, 0, FrameHeaders, flags, st.id)
	b = c.henc.AppendField(b, hpack.HeaderField{Name: ":status", Value: statusText(status)})
	b = c.henc.AppendFields(b, fields)
	block := len(b) - start - frameHeaderLen
	b[start], b[start+1], b[start+2] = byte(block>>16), byte(block>>8), byte(block)
	if n > 0 {
		b = appendFrameHeader(b, n, FrameData, FlagEndStream, st.id)
		b = append(b, body...)
	}
	c.aw.buf = b
	c.aw.unlock()
	c.wmu.Unlock()
	if n > 0 {
		c.noteDataQueued(st)
	} else {
		st.wroteData.Store(true)
	}
	st.mu.Lock()
	st.sendEnded = true
	st.mu.Unlock()
	return true
}

// openStream opens a locally initiated stream (client role), in the
// stream the last clean exchange retired if the read loop is done with
// it.
func (c *conn) openStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return nil, c.closeErr
	}
	if c.goAway != nil {
		return nil, *c.goAway
	}
	// Every stream of a client connection is its own: the peer may not
	// open any (PUSH_PROMISE is a connection error, see dispatch).
	if n := len(c.streams); uint32(n) >= c.peer.maxStreams {
		return nil, fmt.Errorf("http2: too many concurrent streams (%d)", n)
	}
	id := c.nextID
	c.nextID += 2
	st := c.spare
	if st == nil || c.frames.Load() < c.spareAt {
		st = new(Stream)
	} else {
		c.spare = nil
	}
	st.init(c, id, c.peer.initialWindow)
	c.streams[id] = st
	return st, nil
}

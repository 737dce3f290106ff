package http2

// Frame codec, RFC 9113 §4 and §6.
//
// Every frame begins with a fixed 9-octet header:
//
//	+-----------------------------------------------+
//	|                 Length (24)                   |
//	+---------------+-----------------------------------------------+
//	|   Type (8)    |   Flags (8)   |
//	+-+-------------+---------------+-------------------------------+
//	|R|                 Stream Identifier (31)                      |
//	+=+=============================================================+
//	|                   Frame Payload (0...)                      ...
//	+---------------------------------------------------------------+

import (
	"encoding/binary"
	"fmt"
	"io"
)

// A FrameType identifies the frame's payload layout.
type FrameType uint8

const (
	FrameData         FrameType = 0x0
	FrameHeaders      FrameType = 0x1
	FramePriority     FrameType = 0x2
	FrameRSTStream    FrameType = 0x3
	FrameSettings     FrameType = 0x4
	FramePushPromise  FrameType = 0x5
	FramePing         FrameType = 0x6
	FrameGoAway       FrameType = 0x7
	FrameWindowUpdate FrameType = 0x8
	FrameContinuation FrameType = 0x9
)

var frameTypeNames = map[FrameType]string{
	FrameData:         "DATA",
	FrameHeaders:      "HEADERS",
	FramePriority:     "PRIORITY",
	FrameRSTStream:    "RST_STREAM",
	FrameSettings:     "SETTINGS",
	FramePushPromise:  "PUSH_PROMISE",
	FramePing:         "PING",
	FrameGoAway:       "GOAWAY",
	FrameWindowUpdate: "WINDOW_UPDATE",
	FrameContinuation: "CONTINUATION",
}

func (t FrameType) String() string {
	if s, ok := frameTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("UNKNOWN_FRAME_TYPE_%d", uint8(t))
}

// Frame flags.
const (
	FlagEndStream  uint8 = 0x1 // DATA, HEADERS
	FlagAck        uint8 = 0x1 // SETTINGS, PING
	FlagEndHeaders uint8 = 0x4 // HEADERS, PUSH_PROMISE, CONTINUATION
	FlagPadded     uint8 = 0x8 // DATA, HEADERS, PUSH_PROMISE
	FlagPriority   uint8 = 0x20
)

const (
	frameHeaderLen = 9

	// minMaxFrameSize and maxMaxFrameSize bound SETTINGS_MAX_FRAME_SIZE
	// (RFC 9113 §6.5.2).
	minMaxFrameSize = 1 << 14
	maxMaxFrameSize = 1<<24 - 1
)

// A FrameHeader is the fixed 9-octet header of every frame.
type FrameHeader struct {
	Length   uint32 // 24 bits
	Type     FrameType
	Flags    uint8
	StreamID uint32 // 31 bits
}

func (h FrameHeader) Has(flag uint8) bool { return h.Flags&flag != 0 }

func (h FrameHeader) String() string {
	return fmt.Sprintf("[%v flags=%#x stream=%d len=%d]", h.Type, h.Flags, h.StreamID, h.Length)
}

// A Frame is a decoded frame: its header plus the raw payload. The
// payload is a slice of the Framer's read buffer, valid only until the
// next ReadFrame call; its capacity ends where it does, so appending to
// it copies instead of writing over bytes read ahead.
type Frame struct {
	FrameHeader
	Payload []byte
}

// A Framer reads and writes HTTP/2 frames on an io.ReadWriter. Reads
// and writes may proceed concurrently with each other, but each side
// must be externally serialized.
type Framer struct {
	r io.Reader
	w io.Writer

	// bw is set when w is the connection's asyncWriter. Frames are then
	// built at the end of its buffer, where they are written from: no
	// per-frame allocation and no intermediate wbuf copy.
	bw *asyncWriter

	// maxReadSize is the largest payload this endpoint accepts,
	// i.e. its own advertised SETTINGS_MAX_FRAME_SIZE.
	maxReadSize uint32

	// rbuf is the only read buffer, one largest frame long. Every Read
	// of r lands in it and takes whatever the transport has — a burst
	// of frames costs one Read — and frames are parsed where they lie:
	// rbuf[rpos:rend] is what has been read but not yet returned.
	rbuf       []byte
	rpos, rend int

	wbuf []byte
}

// NewFramer returns a Framer that reads from r and writes to w. The
// Framer owns r from here on: it reads ahead of the frame it returns,
// so bytes read from r by anyone else are bytes it may already hold.
func NewFramer(w io.Writer, r io.Reader) *Framer {
	aw, _ := w.(*asyncWriter)
	return &Framer{
		r:           r,
		w:           w,
		bw:          aw,
		maxReadSize: minMaxFrameSize,
		rbuf:        make([]byte, frameHeaderLen+minMaxFrameSize),
	}
}

// SetMaxReadFrameSize raises the payload ceiling for incoming frames.
// Bytes already read ahead are kept.
func (f *Framer) SetMaxReadFrameSize(n uint32) {
	if n < minMaxFrameSize {
		n = minMaxFrameSize
	}
	if n > maxMaxFrameSize {
		n = maxMaxFrameSize
	}
	f.maxReadSize = n
	if size := frameHeaderLen + int(n); len(f.rbuf) < size {
		rbuf := make([]byte, size)
		f.rend = copy(rbuf, f.rbuf[f.rpos:f.rend])
		f.rpos = 0
		f.rbuf = rbuf
	}
}

// ReadFrame returns the next frame, reading from the transport only
// when the buffer does not already hold it. At the end of the input it
// returns io.EOF between frames and io.ErrUnexpectedEOF inside one. A
// Read error consumes nothing: the bytes of a frame cut short by it (a
// deadline, say) stay buffered and the next call resumes there.
func (f *Framer) ReadFrame() (Frame, error) {
	if err := f.fill(frameHeaderLen); err != nil {
		return Frame{}, err
	}
	h := f.rbuf[f.rpos:]
	length := uint32(h[0])<<16 | uint32(h[1])<<8 | uint32(h[2])
	fr := Frame{FrameHeader: FrameHeader{
		Length:   length,
		Type:     FrameType(h[3]),
		Flags:    h[4],
		StreamID: binary.BigEndian.Uint32(h[5:]) & 0x7fffffff,
	}}
	if length > f.maxReadSize {
		return fr, connError(ErrCodeFrameSize, "frame of %d bytes exceeds limit %d", length, f.maxReadSize)
	}
	if err := f.fill(frameHeaderLen + int(length)); err != nil {
		return Frame{}, err
	}
	start := f.rpos + frameHeaderLen
	f.rpos = start + int(length)
	fr.Payload = f.rbuf[start:f.rpos:f.rpos]
	return fr, nil
}

// fill reads until at least n unreturned bytes are buffered, n being at
// most one largest frame. It moves them to the front of rbuf only when
// they would not fit where they are, which overwrites the previous
// frame's payload — the reuse ReadFrame announces.
func (f *Framer) fill(n int) error {
	if f.rpos == f.rend {
		f.rpos, f.rend = 0, 0
	} else if f.rpos+n > len(f.rbuf) {
		f.rend = copy(f.rbuf, f.rbuf[f.rpos:f.rend])
		f.rpos = 0
	}
	for f.rend-f.rpos < n {
		m, err := f.r.Read(f.rbuf[f.rend:])
		f.rend += m
		if err != nil && f.rend-f.rpos < n {
			if err == io.EOF && f.rend > f.rpos {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// appendFrameHeader appends the fixed 9-octet frame header.
func appendFrameHeader(dst []byte, length int, t FrameType, flags uint8, streamID uint32) []byte {
	return append(dst, byte(length>>16), byte(length>>8), byte(length),
		byte(t), flags,
		byte(streamID>>24)&0x7f, byte(streamID>>16), byte(streamID>>8), byte(streamID))
}

// writeFrame writes a single frame with the given payload parts.
func (f *Framer) writeFrame(t FrameType, flags uint8, streamID uint32, parts ...[]byte) error {
	length := 0
	for _, p := range parts {
		length += len(p)
	}
	if length > maxMaxFrameSize {
		return connError(ErrCodeFrameSize, "attempted %d byte frame", length)
	}
	if f.bw != nil {
		if err := f.bw.lock(); err != nil {
			return err
		}
		b := appendFrameHeader(f.bw.buf, length, t, flags, streamID)
		for _, p := range parts {
			b = append(b, p...)
		}
		f.bw.buf = b
		f.bw.unlock()
		return nil
	}
	f.wbuf = f.wbuf[:0]
	f.wbuf = appendFrameHeader(f.wbuf, length, t, flags, streamID)
	for _, p := range parts {
		f.wbuf = append(f.wbuf, p...)
	}
	_, err := f.w.Write(f.wbuf)
	return err
}

// WriteData writes a DATA frame. Callers are responsible for flow
// control and for respecting the peer's SETTINGS_MAX_FRAME_SIZE.
func (f *Framer) WriteData(streamID uint32, endStream bool, data []byte) error {
	var flags uint8
	if endStream {
		flags |= FlagEndStream
	}
	return f.writeFrame(FrameData, flags, streamID, data)
}

// WriteHeaders writes a HEADERS frame carrying a header block
// fragment.
func (f *Framer) WriteHeaders(streamID uint32, endStream, endHeaders bool, fragment []byte) error {
	var flags uint8
	if endStream {
		flags |= FlagEndStream
	}
	if endHeaders {
		flags |= FlagEndHeaders
	}
	return f.writeFrame(FrameHeaders, flags, streamID, fragment)
}

// WriteContinuation writes a CONTINUATION frame.
func (f *Framer) WriteContinuation(streamID uint32, endHeaders bool, fragment []byte) error {
	var flags uint8
	if endHeaders {
		flags |= FlagEndHeaders
	}
	return f.writeFrame(FrameContinuation, flags, streamID, fragment)
}

// WriteSettings writes a (non-ACK) SETTINGS frame.
func (f *Framer) WriteSettings(settings ...Setting) error {
	payload := make([]byte, 0, len(settings)*6)
	for _, s := range settings {
		payload = append(payload,
			byte(s.ID>>8), byte(s.ID),
			byte(s.Val>>24), byte(s.Val>>16), byte(s.Val>>8), byte(s.Val))
	}
	return f.writeFrame(FrameSettings, 0, 0, payload)
}

// WriteSettingsAck acknowledges the peer's SETTINGS frame.
func (f *Framer) WriteSettingsAck() error {
	return f.writeFrame(FrameSettings, FlagAck, 0)
}

// WritePing writes a PING frame with the given 8-byte payload.
func (f *Framer) WritePing(ack bool, data [8]byte) error {
	var flags uint8
	if ack {
		flags |= FlagAck
	}
	return f.writeFrame(FramePing, flags, 0, data[:])
}

// WriteGoAway writes a GOAWAY frame.
func (f *Framer) WriteGoAway(lastStreamID uint32, code ErrCode, debug []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], lastStreamID&0x7fffffff)
	binary.BigEndian.PutUint32(hdr[4:], uint32(code))
	return f.writeFrame(FrameGoAway, 0, 0, hdr[:], debug)
}

// WriteRSTStream writes an RST_STREAM frame.
func (f *Framer) WriteRSTStream(streamID uint32, code ErrCode) error {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], uint32(code))
	return f.writeFrame(FrameRSTStream, 0, streamID, p[:])
}

// WriteWindowUpdate writes a WINDOW_UPDATE frame. incr must be in
// [1, 2^31-1].
func (f *Framer) WriteWindowUpdate(streamID, incr uint32) error {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], incr&0x7fffffff)
	return f.writeFrame(FrameWindowUpdate, 0, streamID, p[:])
}

// WritePriority writes a PRIORITY frame (deprecated by RFC 9113 but
// still legal on the wire).
func (f *Framer) WritePriority(streamID uint32, dep uint32, exclusive bool, weight uint8) error {
	var p [5]byte
	binary.BigEndian.PutUint32(p[:4], dep&0x7fffffff)
	if exclusive {
		p[0] |= 0x80
	}
	p[4] = weight
	return f.writeFrame(FramePriority, 0, streamID, p[:])
}

// parseSettings decodes a SETTINGS payload.
func parseSettings(payload []byte) ([]Setting, error) {
	if len(payload)%6 != 0 {
		return nil, connError(ErrCodeFrameSize, "SETTINGS payload length %d not a multiple of 6", len(payload))
	}
	out := make([]Setting, 0, len(payload)/6)
	for i := 0; i < len(payload); i += 6 {
		out = append(out, Setting{
			ID:  SettingID(binary.BigEndian.Uint16(payload[i:])),
			Val: binary.BigEndian.Uint32(payload[i+2:]),
		})
	}
	return out, nil
}

// stripPadding removes the Pad Length prefix and trailing padding from
// a padded DATA/HEADERS/PUSH_PROMISE payload.
func stripPadding(h FrameHeader, payload []byte) ([]byte, error) {
	if !h.Has(FlagPadded) {
		return payload, nil
	}
	if len(payload) < 1 {
		return nil, connError(ErrCodeProtocol, "padded frame too short")
	}
	padLen := int(payload[0])
	payload = payload[1:]
	if padLen > len(payload) {
		return nil, connError(ErrCodeProtocol, "padding %d exceeds payload %d", padLen, len(payload))
	}
	return payload[:len(payload)-padLen], nil
}

// stripPriority removes the 5-octet priority section from a HEADERS
// payload carrying FlagPriority.
func stripPriority(h FrameHeader, payload []byte) ([]byte, error) {
	if !h.Has(FlagPriority) {
		return payload, nil
	}
	if len(payload) < 5 {
		return nil, connError(ErrCodeProtocol, "HEADERS with priority too short")
	}
	return payload[5:], nil
}

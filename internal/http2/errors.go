// Package http2 implements the HTTP/2 framing protocol (RFC 9113)
// with the SWW extension of "The Small World Web of AI": a new
// SETTINGS parameter, SETTINGS_GEN_ABILITY (0x07), through which
// client and server advertise on-device generative capability during
// connection setup.
//
// The package provides a frame codec (Framer), header compression via
// internal/hpack, connection and stream state machines with flow
// control, and Server/ClientConn types. Endpoints that do not
// recognize SETTINGS_GEN_ABILITY ignore it, so the extension is fully
// backward compatible; both sides fall back to ordinary HTTP/2 unless
// both advertise the ability (paper §3).
package http2

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
)

// An ErrCode is an HTTP/2 error code (RFC 9113 §7).
type ErrCode uint32

const (
	ErrCodeNo                 ErrCode = 0x0
	ErrCodeProtocol           ErrCode = 0x1
	ErrCodeInternal           ErrCode = 0x2
	ErrCodeFlowControl        ErrCode = 0x3
	ErrCodeSettingsTimeout    ErrCode = 0x4
	ErrCodeStreamClosed       ErrCode = 0x5
	ErrCodeFrameSize          ErrCode = 0x6
	ErrCodeRefusedStream      ErrCode = 0x7
	ErrCodeCancel             ErrCode = 0x8
	ErrCodeCompression        ErrCode = 0x9
	ErrCodeConnect            ErrCode = 0xa
	ErrCodeEnhanceYourCalm    ErrCode = 0xb
	ErrCodeInadequateSecurity ErrCode = 0xc
	ErrCodeHTTP11Required     ErrCode = 0xd
)

var errCodeNames = map[ErrCode]string{
	ErrCodeNo:                 "NO_ERROR",
	ErrCodeProtocol:           "PROTOCOL_ERROR",
	ErrCodeInternal:           "INTERNAL_ERROR",
	ErrCodeFlowControl:        "FLOW_CONTROL_ERROR",
	ErrCodeSettingsTimeout:    "SETTINGS_TIMEOUT",
	ErrCodeStreamClosed:       "STREAM_CLOSED",
	ErrCodeFrameSize:          "FRAME_SIZE_ERROR",
	ErrCodeRefusedStream:      "REFUSED_STREAM",
	ErrCodeCancel:             "CANCEL",
	ErrCodeCompression:        "COMPRESSION_ERROR",
	ErrCodeConnect:            "CONNECT_ERROR",
	ErrCodeEnhanceYourCalm:    "ENHANCE_YOUR_CALM",
	ErrCodeInadequateSecurity: "INADEQUATE_SECURITY",
	ErrCodeHTTP11Required:     "HTTP_1_1_REQUIRED",
}

func (e ErrCode) String() string {
	if s, ok := errCodeNames[e]; ok {
		return s
	}
	return fmt.Sprintf("unknown error code %#x", uint32(e))
}

// A ConnectionError terminates the whole connection (RFC 9113 §5.4.1).
type ConnectionError struct {
	Code   ErrCode
	Reason string
}

func (e ConnectionError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("http2: connection error: %v", e.Code)
	}
	return fmt.Sprintf("http2: connection error: %v: %s", e.Code, e.Reason)
}

// A StreamError terminates a single stream (RFC 9113 §5.4.2).
type StreamError struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

func (e StreamError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("http2: stream %d error: %v", e.StreamID, e.Code)
	}
	return fmt.Sprintf("http2: stream %d error: %v: %s", e.StreamID, e.Code, e.Reason)
}

func connError(code ErrCode, format string, args ...any) ConnectionError {
	return ConnectionError{Code: code, Reason: fmt.Sprintf(format, args...)}
}

func streamError(id uint32, code ErrCode, format string, args ...any) StreamError {
	return StreamError{StreamID: id, Code: code, Reason: fmt.Sprintf(format, args...)}
}

// GoAwayError is returned to pending operations when the peer sends
// GOAWAY.
type GoAwayError struct {
	LastStreamID uint32
	Code         ErrCode
	DebugData    string
}

func (e GoAwayError) Error() string {
	return fmt.Sprintf("http2: peer sent GOAWAY (last stream %d, %v, %q)",
		e.LastStreamID, e.Code, e.DebugData)
}

// A TransportError wraps an I/O failure on the connection beneath the
// framing layer: the peer vanished, the link reset, a read or write
// died mid-frame. Transport errors say nothing about protocol
// correctness, so idempotent requests are safe to retry on a fresh
// connection.
type TransportError struct {
	Op  string // "read", "write", "close"
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("http2: transport %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying I/O error.
func (e *TransportError) Unwrap() error { return e.Err }

// ErrPingTimeout is returned by Ping when the peer's ACK does not
// arrive in time — the keepalive signal for a dead or wedged peer.
var ErrPingTimeout = errors.New("http2: ping timeout")

// ErrPeerClosed marks a connection the peer closed without GOAWAY.
var ErrPeerClosed = errors.New("http2: connection closed by peer")

// ErrLocallyClosed marks a connection this endpoint shut down.
var ErrLocallyClosed = errors.New("http2: connection closed locally")

// Retryable classifies an error from a request path as safe-to-retry
// on a new connection versus fatal. The taxonomy:
//
//   - Transport failures (TransportError, raw EOF / unexpected EOF,
//     net.Error, closed-connection errors): retryable — the request
//     may or may not have been processed, but SWW requests are
//     idempotent GETs.
//   - GOAWAY surfaced as a stream failure: retryable. The connection
//     machinery only fails streams whose ID exceeds the GOAWAY
//     last-stream-ID, which the peer guarantees it never processed
//     (RFC 9113 §6.8), so replay is always safe.
//   - RST_STREAM with REFUSED_STREAM: retryable by specification —
//     the peer rejected the stream before doing any work.
//   - Ping timeouts: retryable (dead peer, not bad request).
//   - Context cancellation/deadline: fatal — the caller gave up.
//   - ConnectionError / other StreamErrors: fatal — a protocol
//     violation that a retry would only repeat.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var ga GoAwayError
	if errors.As(err, &ga) {
		return true
	}
	var se StreamError
	if errors.As(err, &se) {
		return se.Code == ErrCodeRefusedStream
	}
	var ce ConnectionError
	if errors.As(err, &ce) {
		return false
	}
	if errors.Is(err, ErrPingTimeout) || errors.Is(err, ErrPeerClosed) ||
		errors.Is(err, ErrLocallyClosed) || errors.Is(err, errWriterClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

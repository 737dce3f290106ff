package main

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"sww/internal/core"
	"sww/internal/hpack"
	"sww/internal/http2"
)

// A rawConn is the benchmark's own minimal h2 client: a Framer and an
// HPACK codec on a socket, one request at a time, nothing else. It
// bypasses core.Client and http2.ClientConn, so its round trip is the
// floor those two add their overhead to, and it is where the ledger
// captures the workload's header lists and frames for the codec probes.
type rawConn struct {
	nc  net.Conn
	fr  *http2.Framer
	enc *hpack.Encoder
	dec *hpack.Decoder

	nextID     uint32
	block      []byte
	unacked    uint32              // DATA bytes received and not yet returned to the connection window
	reqFields  []hpack.HeaderField // scratch for the request's field list
	respFields []hpack.HeaderField // last response's field list
	respBlock  int                 // HPACK block bytes of all responses so far
	body       []byte              // last response's body
}

// dialRaw connects and negotiates; setup is dial → the server's
// SETTINGS carrying 0x07 read and acknowledged.
func dialRaw(addr string, ability http2.GenAbility) (c *rawConn, setup time.Duration, err error) {
	start := time.Now()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	c = &rawConn{nc: nc, fr: http2.NewFramer(nc, nc), enc: hpack.NewEncoder(), dec: hpack.NewDecoder(0), nextID: 1}
	settings := []http2.Setting{{ID: http2.SettingInitialWindowSize, Val: 1 << 20}}
	if ability != http2.GenNone {
		settings = append(settings, http2.Setting{ID: http2.SettingGenAbility, Val: uint32(ability)})
	}
	if _, err = io.WriteString(nc, http2.ClientPreface); err == nil {
		err = c.fr.WriteSettings(settings...)
	}
	for err == nil {
		var f http2.Frame
		if f, err = c.fr.ReadFrame(); err != nil {
			break
		}
		if f.Type == http2.FrameSettings && !f.Has(http2.FlagAck) {
			err = c.fr.WriteSettingsAck()
			break
		}
	}
	if err != nil {
		nc.Close()
		return nil, 0, fmt.Errorf("raw h2 handshake: %w", err)
	}
	return c, time.Since(start), nil
}

func (c *rawConn) close() { c.nc.Close() }

// get runs one GET to completion and returns the reply.
func (c *rawConn) get(path string) (*core.RawReply, error) {
	c.reqFields = append(c.reqFields[:0],
		hpack.HeaderField{Name: ":method", Value: "GET"},
		hpack.HeaderField{Name: ":scheme", Value: "https"},
		hpack.HeaderField{Name: ":path", Value: path},
		hpack.HeaderField{Name: ":authority", Value: "sww.local"})
	c.block = c.enc.AppendFields(c.block[:0], c.reqFields)
	id := c.nextID
	c.nextID += 2
	if err := c.fr.WriteHeaders(id, true, true, c.block); err != nil {
		return nil, err
	}
	reply := &core.RawReply{}
	c.body = c.body[:0]
	for {
		f, err := c.fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case http2.FrameHeaders:
			fields, err := c.dec.Decode(f.Payload)
			if err != nil {
				return nil, err
			}
			c.respBlock += len(f.Payload)
			c.respFields = append(c.respFields[:0], fields...)
			for _, h := range fields {
				switch h.Name {
				case ":status":
					reply.Status, _ = strconv.Atoi(h.Value)
				case core.ModeHeader:
					reply.Mode = h.Value
				}
			}
		case http2.FrameData:
			c.body = append(c.body, f.Payload...)
			c.unacked += f.Length
		case http2.FrameSettings:
			if !f.Has(http2.FlagAck) {
				if err := c.fr.WriteSettingsAck(); err != nil {
					return nil, err
				}
			}
		case http2.FramePing:
			if !f.Has(http2.FlagAck) {
				var data [8]byte
				copy(data[:], f.Payload)
				if err := c.fr.WritePing(true, data); err != nil {
					return nil, err
				}
			}
		case http2.FrameGoAway, http2.FrameRSTStream:
			return nil, fmt.Errorf("raw h2: server sent %v", f.Type)
		}
		if f.StreamID == id && f.Has(http2.FlagEndStream) &&
			(f.Type == http2.FrameData || f.Type == http2.FrameHeaders) {
			break
		}
	}
	if c.unacked >= 1<<15 {
		if err := c.fr.WriteWindowUpdate(0, c.unacked); err != nil {
			return nil, err
		}
		c.unacked = 0
	}
	reply.Body = c.body
	return reply, nil
}

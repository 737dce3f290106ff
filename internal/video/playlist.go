package video

// Minimal HLS playlist rendering and parsing (RFC 8216 subset):
// enough structure that the streaming session exercises real manifest
// handling rather than passing structs around.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// MasterPlaylist renders the stream's variant ladder as an HLS master
// playlist.
func MasterPlaylist(s *Stream) string {
	var b strings.Builder
	b.WriteString("#EXTM3U\n#EXT-X-VERSION:7\n")
	for _, v := range s.Variants {
		fmt.Fprintf(&b, "#EXT-X-STREAM-INF:BANDWIDTH=%d,RESOLUTION=%dx%d,FRAME-RATE=%d\n",
			int(v.Mbps*1e6), v.Width, v.Height, v.FPS)
		fmt.Fprintf(&b, "%s/playlist.m3u8\n", v.Name)
	}
	return b.String()
}

// MediaPlaylist renders one variant's segment list.
func MediaPlaylist(s *Stream, v Variant) string {
	var b strings.Builder
	b.WriteString("#EXTM3U\n#EXT-X-VERSION:7\n")
	fmt.Fprintf(&b, "#EXT-X-TARGETDURATION:%d\n", int(s.SegmentDuration.Seconds()))
	for i := 0; i < s.Segments(); i++ {
		dur := s.SegmentDuration
		if rem := s.Duration - time.Duration(i)*s.SegmentDuration; rem < dur {
			dur = rem
		}
		fmt.Fprintf(&b, "#EXTINF:%.3f,\n%s/seg%04d.ts\n", dur.Seconds(), v.Name, i)
	}
	b.WriteString("#EXT-X-ENDLIST\n")
	return b.String()
}

// ParsedVariant is one entry of a parsed master playlist.
type ParsedVariant struct {
	Bandwidth     int
	Width, Height int
	FPS           int
	URI           string
}

// ParseMaster parses a master playlist produced by MasterPlaylist
// (and the common subset of real-world ones).
func ParseMaster(src string) ([]ParsedVariant, error) {
	lines := strings.Split(strings.TrimSpace(src), "\n")
	if len(lines) == 0 || lines[0] != "#EXTM3U" {
		return nil, fmt.Errorf("video: not an m3u8 playlist")
	}
	var out []ParsedVariant
	var pending *ParsedVariant
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "#EXT-X-STREAM-INF:"):
			v := &ParsedVariant{}
			for _, attr := range splitAttrs(strings.TrimPrefix(line, "#EXT-X-STREAM-INF:")) {
				key, val, ok := strings.Cut(attr, "=")
				if !ok {
					continue
				}
				var err error
				switch key {
				case "BANDWIDTH":
					v.Bandwidth, err = count(val)
				case "FRAME-RATE":
					var f float64
					f, err = strconv.ParseFloat(val, 64)
					if err == nil && !(f >= 0 && f <= math.MaxInt32) {
						err = errOutOfRange
					}
					v.FPS = int(f)
				case "RESOLUTION":
					w, h, _ := strings.Cut(val, "x")
					if v.Width, err = count(w); err == nil {
						v.Height, err = count(h)
					}
				}
				if err != nil {
					return nil, fmt.Errorf("video: bad %s in %q: %w", key, line, err)
				}
			}
			pending = v
		case line == "" || strings.HasPrefix(line, "#"):
			// Other tags are ignored.
		default:
			if pending != nil {
				pending.URI = line
				out = append(out, *pending)
				pending = nil
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("video: playlist has no variants")
	}
	return out, nil
}

// ParseMediaSegments returns the segment URIs and durations of a
// media playlist.
func ParseMediaSegments(src string) (uris []string, durations []time.Duration, err error) {
	lines := strings.Split(strings.TrimSpace(src), "\n")
	if len(lines) == 0 || lines[0] != "#EXTM3U" {
		return nil, nil, fmt.Errorf("video: not an m3u8 playlist")
	}
	var pendingDur time.Duration
	havePending := false
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "#EXTINF:"):
			v := strings.TrimSuffix(strings.TrimPrefix(line, "#EXTINF:"), ",")
			secs, err := strconv.ParseFloat(strings.TrimSuffix(v, ","), 64)
			// A duration is finite, not negative, and fits a
			// time.Duration; NaN fails both comparisons.
			ns := secs * float64(time.Second)
			if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
				return nil, nil, fmt.Errorf("video: bad EXTINF %q", line)
			}
			pendingDur = time.Duration(ns)
			havePending = true
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			if havePending {
				uris = append(uris, line)
				durations = append(durations, pendingDur)
				havePending = false
			}
		}
	}
	return uris, durations, nil
}

var errOutOfRange = errors.New("out of range")

// count parses a non-negative decimal integer attribute value.
func count(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = errOutOfRange
	}
	return n, err
}

// splitAttrs splits an attribute list on commas outside quotes.
func splitAttrs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

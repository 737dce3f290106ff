package video

import (
	"fmt"
	"testing"
	"time"
)

// FuzzPlaylistParse drives both playlist parsers. Any input must parse
// without a panic into as many segment URIs as durations, none of them
// negative. And the playlists MasterPlaylist and MediaPlaylist write
// for a one-variant stream built from the other arguments must parse
// back to that variant and its segments.
func FuzzPlaylistParse(f *testing.F) {
	s := NewStream("doc", 61*time.Second)
	f.Add(MasterPlaylist(s), uint16(3840), uint16(2160), uint8(60), uint32(31_100), uint32(61_000))
	f.Add(MediaPlaylist(s, Variant4K30), uint16(1920), uint16(1080), uint8(30), uint32(6_700), uint32(4_000))
	f.Add("#EXTM3U\n#EXTINF:-5,\nseg.ts\n#EXTINF:NaN,\nseg.ts\n", uint16(0), uint16(0), uint8(0), uint32(0), uint32(1))
	f.Add("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=-7,RESOLUTION=-3x-4,FRAME-RATE=NaN\nv.m3u8\n",
		uint16(1), uint16(1), uint8(1), uint32(1), uint32(999))

	f.Fuzz(func(t *testing.T, src string, width, height uint16, fps uint8, kbps, durMs uint32) {
		ParseMaster(src)
		uris, durs, err := ParseMediaSegments(src)
		if err == nil && len(uris) != len(durs) {
			t.Fatalf("%d URIs but %d durations", len(uris), len(durs))
		}
		for i, d := range durs {
			if d < 0 {
				t.Fatalf("segment %d lasts %v", i, d)
			}
		}

		v := Variant{Name: "v", Width: int(width), Height: int(height), FPS: int(fps), Mbps: float64(kbps) / 1000}
		// At most 256 segments of 4 s, and at least one millisecond.
		rt := &Stream{
			Duration:        time.Duration(durMs%(1024*1000)+1) * time.Millisecond,
			SegmentDuration: 4 * time.Second,
			Variants:        []Variant{v},
		}
		variants, err := ParseMaster(MasterPlaylist(rt))
		want := ParsedVariant{Bandwidth: int(v.Mbps * 1e6), Width: v.Width, Height: v.Height, FPS: v.FPS, URI: "v/playlist.m3u8"}
		if err != nil || len(variants) != 1 || variants[0] != want {
			t.Fatalf("master playlist parsed to %+v, %v; want [%+v]", variants, err, want)
		}
		uris, durs, err = ParseMediaSegments(MediaPlaylist(rt, v))
		if err != nil || len(uris) != rt.Segments() {
			t.Fatalf("media playlist parsed to %d segments, %v; want %d", len(uris), err, rt.Segments())
		}
		for i, d := range durs {
			wantDur := min(rt.SegmentDuration, rt.Duration-time.Duration(i)*rt.SegmentDuration)
			if uri := fmt.Sprintf("v/seg%04d.ts", i); uris[i] != uri || d.Round(time.Millisecond) != wantDur {
				t.Fatalf("segment %d is %q for %v, want %q for %v", i, uris[i], d, uri, wantDur)
			}
		}
	})
}

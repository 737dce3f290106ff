package video

import (
	"math"
	"strings"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/http2"
)

func abilityFull() http2.GenAbility {
	return http2.GenBasic | http2.GenVideoFrameRate | http2.GenVideoResolution
}

func TestVariantRates(t *testing.T) {
	// §3.2 anchors: 4K ≈ 7 GB/h, HD ≈ 3 GB/h, 60 fps doubles data.
	if got := Variant4K30.GBPerHour(); math.Abs(got-7.0) > 0.1 {
		t.Errorf("4K30 = %.2f GB/h, want ≈7", got)
	}
	if got := VariantHD30.GBPerHour(); math.Abs(got-3.0) > 0.1 {
		t.Errorf("HD30 = %.2f GB/h, want ≈3", got)
	}
	if r := Variant4K60.Mbps / Variant4K30.Mbps; math.Abs(r-2) > 0.01 {
		t.Errorf("60/30 fps data ratio = %.2f, want 2", r)
	}
}

func TestNegotiateFrameRate(t *testing.T) {
	s := NewStream("test", time.Minute)
	d := Negotiate(s, Variant4K60, http2.GenBasic|http2.GenVideoFrameRate)
	if !d.BoostFrames || d.Wire.Name != "2160p30" {
		t.Fatalf("delivery = %+v", d)
	}
	if d.Presented != Variant4K60 {
		t.Error("presented variant changed")
	}
	if f := d.SavingsFactor(Variant4K60); math.Abs(f-2) > 0.01 {
		t.Errorf("savings = %.2fx, want 2x", f)
	}
}

func TestNegotiateResolution(t *testing.T) {
	s := NewStream("test", time.Minute)
	d := Negotiate(s, Variant4K30, http2.GenBasic|http2.GenVideoResolution)
	if !d.UpscaleRes || d.Wire.Name != "1080p30" {
		t.Fatalf("delivery = %+v", d)
	}
	// §3.2: "from 4K to high definition can save 2.3× data".
	if f := d.SavingsFactor(Variant4K30); math.Abs(f-7.0/3.0) > 0.05 {
		t.Errorf("savings = %.2fx, want ≈2.33x", f)
	}
}

func TestNegotiateCombined(t *testing.T) {
	s := NewStream("test", time.Minute)
	d := Negotiate(s, Variant4K60, abilityFull())
	if d.Wire.Name != "1080p30" || !d.BoostFrames || !d.UpscaleRes {
		t.Fatalf("delivery = %+v", d)
	}
	if f := d.SavingsFactor(Variant4K60); f < 4.5 {
		t.Errorf("combined savings = %.2fx", f)
	}
}

func TestNegotiateNoAbility(t *testing.T) {
	s := NewStream("test", time.Minute)
	d := Negotiate(s, Variant4K60, http2.GenNone)
	if d.Wire != Variant4K60 || d.BoostFrames || d.UpscaleRes {
		t.Fatalf("delivery = %+v", d)
	}
}

func TestPlaylistRoundTrip(t *testing.T) {
	s := NewStream("doc", 61*time.Second)
	master := MasterPlaylist(s)
	variants, err := ParseMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != len(s.Variants) {
		t.Fatalf("%d parsed variants", len(variants))
	}
	for i, v := range variants {
		want := s.Variants[i]
		if v.Width != want.Width || v.FPS != want.FPS {
			t.Errorf("variant %d = %+v, want %+v", i, v, want)
		}
		if v.Bandwidth != int(want.Mbps*1e6) {
			t.Errorf("variant %d bandwidth = %d", i, v.Bandwidth)
		}
		if !strings.HasPrefix(v.URI, want.Name) {
			t.Errorf("variant %d uri = %q", i, v.URI)
		}
	}

	media := MediaPlaylist(s, Variant4K30)
	uris, durs, err := ParseMediaSegments(media)
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != s.Segments() {
		t.Fatalf("%d segments, want %d", len(uris), s.Segments())
	}
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	if total != s.Duration {
		t.Errorf("segment durations sum to %v, want %v", total, s.Duration)
	}
	// The final segment is the 1 s remainder.
	if durs[len(durs)-1] != time.Second {
		t.Errorf("last segment = %v, want 1s", durs[len(durs)-1])
	}
}

func TestParseMasterErrors(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"garbage", "not a playlist"},
		{"empty ladder", "#EXTM3U\n"},
		{"negative bandwidth", "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=-7\nv.m3u8\n"},
		{"negative resolution", "#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=-3x-4\nv.m3u8\n"},
		{"resolution without height", "#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=1920\nv.m3u8\n"},
		{"NaN frame rate", "#EXTM3U\n#EXT-X-STREAM-INF:FRAME-RATE=NaN\nv.m3u8\n"},
		{"infinite frame rate", "#EXTM3U\n#EXT-X-STREAM-INF:FRAME-RATE=Inf\nv.m3u8\n"},
		{"negative frame rate", "#EXTM3U\n#EXT-X-STREAM-INF:FRAME-RATE=-30\nv.m3u8\n"},
		{"frame rate past int", "#EXTM3U\n#EXT-X-STREAM-INF:FRAME-RATE=1e300\nv.m3u8\n"},
	} {
		if vs, err := ParseMaster(c.src); err == nil {
			t.Errorf("%s: parsed %+v, want an error", c.name, vs)
		}
	}
}

func TestParseMediaSegmentsErrors(t *testing.T) {
	for _, extinf := range []string{"-5", "-0.001", "NaN", "Inf", "-Inf", "1e300", "9223372037", "soon"} {
		src := "#EXTM3U\n#EXTINF:" + extinf + ",\nseg0.ts\n"
		if uris, durs, err := ParseMediaSegments(src); err == nil {
			t.Errorf("EXTINF:%s parsed to %v %v, want an error", extinf, uris, durs)
		}
	}
	// The largest duration a time.Duration holds still parses.
	if _, durs, err := ParseMediaSegments("#EXTM3U\n#EXTINF:9223372036,\nseg0.ts\n"); err != nil || durs[0] != 9223372036*time.Second {
		t.Errorf("EXTINF:9223372036 parsed to %v, %v", durs, err)
	}
}

func TestPlayTraditional(t *testing.T) {
	s := NewStream("movie", 10*time.Minute)
	rep, err := Play(s, SessionConfig{
		Device: device.Laptop, Ability: http2.GenNone, Want: Variant4K60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SavingsFactor != 1 || rep.BytesSaved != 0 {
		t.Errorf("traditional playback saved data: %+v", rep)
	}
	if rep.Rebuffers != 0 {
		t.Errorf("%d rebuffers on a 100 Mbps link at 31 Mbps", rep.Rebuffers)
	}
	if rep.BoostComputeTime != 0 || rep.BoostEnergyWh != 0 {
		t.Error("traditional playback should not boost")
	}
}

// TestPlayBoostOnWorkstation: the negotiated stream halves the data
// and the workstation restores it faster than real time.
func TestPlayBoostOnWorkstation(t *testing.T) {
	s := NewStream("movie", 10*time.Minute)
	rep, err := Play(s, SessionConfig{
		Device: device.Workstation, Ability: http2.GenBasic | http2.GenVideoFrameRate,
		Want: Variant4K60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.SavingsFactor-2) > 0.01 {
		t.Errorf("savings = %.2fx", rep.SavingsFactor)
	}
	if rep.Rebuffers != 0 {
		t.Errorf("%d rebuffers on the workstation", rep.Rebuffers)
	}
	if rep.RealTimeFactor <= 1 {
		t.Errorf("real-time factor = %.2f, want >1", rep.RealTimeFactor)
	}
	if rep.BoostComputeTime <= 0 {
		t.Error("no boost work recorded")
	}
}

// TestPlayBoostOnMobile: the mobile device cannot synthesize 4K
// frames in real time — the §7 gap ("often missing the required
// hardware acceleration capabilities").
func TestPlayBoostOnMobile(t *testing.T) {
	s := NewStream("movie", 2*time.Minute)
	rep, err := Play(s, SessionConfig{
		Device: device.Mobile, Ability: http2.GenBasic | http2.GenVideoFrameRate,
		Want: Variant4K60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RealTimeFactor >= 1 {
		t.Errorf("real-time factor = %.2f; mobile should not keep up with 4K boosting", rep.RealTimeFactor)
	}
	if rep.Rebuffers == 0 {
		t.Error("mobile 4K boosting should rebuffer")
	}
}

// TestEnergyTradeoff mirrors §6.4 for video — with the opposite
// outcome from images, and that is the finding: frame interpolation
// costs far less energy per byte than diffusion, so at the paper's
// per-traffic-unit figure (0.038 Wh/MB) the video use case is
// energy-positive already. (The paper's own caveat applies: network
// energy is dominated by static power, so the per-unit savings are an
// accounting upper bound.)
func TestEnergyTradeoff(t *testing.T) {
	s := NewStream("movie", 10*time.Minute)
	rep, err := Play(s, SessionConfig{
		Device: device.Laptop, Ability: http2.GenBasic | http2.GenVideoFrameRate,
		Want: Variant4K60,
	})
	if err != nil {
		t.Fatal(err)
	}
	savedTransmit := device.TransmitEnergyWh(rep.BytesSaved)
	if rep.BoostEnergyWh >= savedTransmit {
		t.Errorf("boost energy %.3f Wh ≥ per-unit transmit savings %.3f Wh:"+
			" interpolation should be cheap relative to video transfer volume",
			rep.BoostEnergyWh, savedTransmit)
	}
	// Sanity on magnitudes: ~1.1 GB saved over 10 minutes.
	if rep.BytesSaved < 1e9 {
		t.Errorf("bytes saved = %d, want ≈1.16 GB", rep.BytesSaved)
	}
}

func TestStreamSegments(t *testing.T) {
	s := NewStream("x", 10*time.Second)
	if s.Segments() != 3 { // 4+4+2
		t.Errorf("segments = %d, want 3", s.Segments())
	}
	if _, err := s.VariantByName("2160p60"); err != nil {
		t.Error(err)
	}
	if _, err := s.VariantByName("480p"); err == nil {
		t.Error("unknown variant should fail")
	}
}

func BenchmarkPlaySession(b *testing.B) {
	s := NewStream("movie", time.Hour)
	cfg := SessionConfig{
		Device: device.Laptop, Ability: abilityFull(), Want: Variant4K60,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Play(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

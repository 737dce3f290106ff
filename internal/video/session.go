package video

// A simulated playback session: the player downloads segments over
// the device's link, restores reduced content locally, and maintains
// a playout buffer. The session quantifies the §3.2 trade-off — data
// savings versus whether the device's restoration hardware keeps up
// with real time.

import (
	"time"

	"sww/internal/device"
	"sww/internal/http2"
)

// SessionConfig parameterizes a playback simulation.
type SessionConfig struct {
	Device  device.Profile
	Ability http2.GenAbility
	Want    Variant
}

// startupBuffer is how much content the player fetches before starting
// playback.
const startupBuffer = 8 * time.Second

// A SessionReport summarizes one simulated playback.
type SessionReport struct {
	Delivery Delivery

	// BytesDownloaded is the wire total; BytesSaved compares against
	// delivering the requested variant unmodified.
	BytesDownloaded int64
	BytesSaved      int64
	SavingsFactor   float64

	// StartupDelay is time-to-first-frame.
	StartupDelay time.Duration

	// Rebuffers counts playback stalls; RebufferTime is their total
	// length.
	Rebuffers    int
	RebufferTime time.Duration

	// BoostComputeTime is total client-side restoration work;
	// RealTimeFactor is segment duration ÷ (download + restore) — a
	// value below 1 means the device cannot keep up.
	BoostComputeTime time.Duration
	RealTimeFactor   float64

	// TransmitEnergyWh is the network-side energy of the download;
	// BoostEnergyWh is the device-side restoration energy (GPU-class
	// draw, modelled with the device's image power).
	TransmitEnergyWh float64
	BoostEnergyWh    float64
}

// Play simulates the full playback of s under cfg.
func Play(s *Stream, cfg SessionConfig) (*SessionReport, error) {
	d := Negotiate(s, cfg.Want, cfg.Ability)
	rep := &SessionReport{Delivery: d}

	segBytes := d.Wire.BytesPerSegment(s.SegmentDuration)
	segDownload := cfg.Device.TransmitTime(segBytes)
	var segWork time.Duration
	if d.BoostFrames || d.UpscaleRes {
		w, err := DefaultBooster.SegmentWork(cfg.Device.Class, d, s.SegmentDuration)
		if err != nil {
			return nil, err
		}
		segWork = w
	}
	segReady := segDownload + segWork

	// Startup: fetch and restore enough segments to fill the buffer.
	startSegs := int(startupBuffer / s.SegmentDuration)
	if startSegs < 1 {
		startSegs = 1
	}
	total := s.Segments()
	if startSegs > total {
		startSegs = total
	}
	rep.StartupDelay = time.Duration(startSegs) * segReady

	// Steady state: each playback interval of SegmentDuration must
	// produce one ready segment. buffer tracks ready-but-unplayed
	// content.
	buffer := time.Duration(startSegs) * s.SegmentDuration
	for seg := startSegs; seg < total; seg++ {
		// While the next segment becomes ready, playback consumes the
		// buffer.
		buffer -= segReady
		if buffer < 0 {
			rep.Rebuffers++
			rep.RebufferTime += -buffer
			buffer = 0
		}
		buffer += s.SegmentDuration
	}

	rep.BytesDownloaded = segBytes * int64(total)
	wantBytes := cfg.Want.BytesPerSegment(s.SegmentDuration) * int64(total)
	rep.BytesSaved = wantBytes - rep.BytesDownloaded
	rep.SavingsFactor = float64(wantBytes) / float64(rep.BytesDownloaded)
	rep.BoostComputeTime = segWork * time.Duration(total)
	if segReady > 0 {
		rep.RealTimeFactor = float64(s.SegmentDuration) / float64(segReady)
	}
	rep.TransmitEnergyWh = device.TransmitEnergyWh(rep.BytesDownloaded)
	rep.BoostEnergyWh = cfg.Device.ImageGenEnergyWh(rep.BoostComputeTime)
	return rep, nil
}

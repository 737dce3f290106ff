package experiments

// Experiments for the paper's extension/future-work features: HTTP/3
// support (§3.1), content upscaling (§2.2) and personalization
// (§2.3).

import (
	"fmt"
	"io"
	"net"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/http3"
	"sww/internal/video"
	"sww/internal/workload"
)

// H3Row is one §3.1 negotiation outcome over HTTP/3.
type H3Row struct {
	Scenario   string
	Negotiated http2.GenAbility
	OK         bool
}

// H3CapabilityMatrix repeats the §6.2 functionality matrix over the
// HTTP/3 mapping, demonstrating §3.1's claim that "similar use of
// SETTINGS under HTTP/3" carries the negotiation.
func H3CapabilityMatrix() ([]H3Row, error) {
	cases := []struct {
		name           string
		server, client http2.GenAbility
	}{
		{"both-support", http2.GenFull, http2.GenFull},
		{"server-only", http2.GenFull, http2.GenNone},
		{"client-only", http2.GenNone, http2.GenFull},
		{"neither", http2.GenNone, http2.GenNone},
	}
	var rows []H3Row
	for _, c := range cases {
		h := http3.HandlerFunc(func(w *http3.ResponseWriter, r *http3.Request) {
			w.WriteHeaders(200)
			w.Write([]byte("ok"))
		})
		cEnd, sEnd := net.Pipe()
		srv := &http3.Server{Handler: h, Config: http3.Config{GenAbility: c.server}}
		sc := srv.StartConn(sEnd)
		cc, err := http3.NewClientConn(cEnd, http3.Config{GenAbility: c.client})
		if err != nil {
			return nil, err
		}
		if err := sc.WaitClientSettings(); err != nil {
			return nil, err
		}
		resp, err := cc.Get("/")
		rows = append(rows, H3Row{
			Scenario:   c.name,
			Negotiated: cc.Negotiated(),
			OK:         err == nil && resp.Status == 200,
		})
		cc.Close()
		sc.Close()
	}
	return rows, nil
}

// reportH3 prints E14 and fails unless only both-support negotiated an
// ability and every scenario still completed its request.
func reportH3(w io.Writer, _ bool) error {
	rows, err := H3CapabilityMatrix()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper §3.1: \"similar use of SETTINGS under HTTP/3 can allow to advertise\"\n")
	fmt.Fprintf(w, "%-14s %-18s %s\n", "scenario", "negotiated", "ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-18s %v\n", r.Scenario, r.Negotiated, r.OK)
	}
	for _, r := range rows {
		if !r.OK || (r.Negotiated != 0) != (r.Scenario == "both-support") {
			return fmt.Errorf("E14 %s: negotiated %v, request ok %v", r.Scenario, r.Negotiated, r.OK)
		}
	}
	return nil
}

// UpscaleResult is the §2.2 upscaling experiment on the photo
// gallery.
type UpscaleResult struct {
	Photos int

	// WireBytes for the low-res + directive transfer vs. the full-res
	// traditional transfer.
	UpscaleWireBytes     int
	TraditionalWireBytes int
	WireSavings          float64

	// Upscale time vs. generating the same output size from scratch.
	UpscaleTime  time.Duration
	GenerateTime time.Duration
	SpeedFactor  float64
}

// UpscaleExperiment fetches the gallery both ways and compares
// against full generation of the same output sizes.
func UpscaleExperiment() (*UpscaleResult, error) {
	page := workload.PhotoGallery()
	res := &UpscaleResult{Photos: len(page.Placeholders())}

	up, err := fetchAs(page, true)
	if err != nil {
		return nil, err
	}
	res.UpscaleWireBytes = up.WireBytes
	res.UpscaleTime = up.Report.SimGenTime

	trad, err := fetchAs(workload.PhotoGallery(), false)
	if err != nil {
		return nil, err
	}
	res.TraditionalWireBytes = trad.WireBytes
	res.WireSavings = float64(trad.WireBytes) / float64(up.WireBytes)

	// Generating six 512² images instead (the §2.2 comparison:
	// "usually faster than content generation").
	gen, err := sd3GenTime(device.ClassLaptop, 512, 512, 15)
	if err != nil {
		return nil, err
	}
	res.GenerateTime = time.Duration(res.Photos) * gen
	res.SpeedFactor = float64(res.GenerateTime) / float64(res.UpscaleTime)
	return res, nil
}

func reportUpscale(w io.Writer, _ bool) error {
	r, err := UpscaleExperiment()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper §2.2: upscaling reduces unique-content storage and is\n")
	fmt.Fprintf(w, "\"usually faster than content generation, with sub-second inference\"\n\n")
	fmt.Fprintf(w, "photos:            %d (128² stored, 512² rendered)\n", r.Photos)
	fmt.Fprintf(w, "wire, upscale:     %d B\n", r.UpscaleWireBytes)
	fmt.Fprintf(w, "wire, traditional: %d B (%.1fx savings)\n", r.TraditionalWireBytes, r.WireSavings)
	fmt.Fprintf(w, "upscale time:      %.2fs (laptop, all photos)\n", r.UpscaleTime.Seconds())
	fmt.Fprintf(w, "generate instead:  %.1fs (%.0fx slower)\n", r.GenerateTime.Seconds(), r.SpeedFactor)
	return nil
}

// sd3GenTime is SD 3 Medium's modelled generation time.
func sd3GenTime(class device.Class, w, h, steps int) (time.Duration, error) {
	m, err := genai.ImageModelByName(imagegen.SD3Medium)
	if err != nil {
		return 0, err
	}
	return m.(genai.GenTimer).GenTime(class, w, h, steps)
}

// StreamingRow is one §3.2 playback simulation outcome.
type StreamingRow struct {
	Device  string
	Ability http2.GenAbility
	Report  *video.SessionReport
}

// StreamingExperiment plays a 10-minute 4K60 title on each device
// with and without negotiated generation ability, quantifying the
// §3.2 trade-off the paper leaves for future work: data savings vs.
// whether the device's restoration hardware keeps up.
func StreamingExperiment() ([]StreamingRow, error) {
	stream := video.NewStream("documentary", 10*time.Minute)
	boost := http2.GenBasic | http2.GenVideoFrameRate
	full := boost | http2.GenVideoResolution
	cases := []struct {
		dev     device.Profile
		ability http2.GenAbility
	}{
		{device.Laptop, http2.GenNone},
		{device.Laptop, boost},
		{device.Laptop, full},
		{device.Workstation, full},
		{device.Mobile, boost},
	}
	var rows []StreamingRow
	for _, c := range cases {
		rep, err := video.Play(stream, video.SessionConfig{
			Device: c.dev, Ability: c.ability, Want: video.Variant4K60,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, StreamingRow{Device: c.dev.Name, Ability: c.ability, Report: rep})
	}
	return rows, nil
}

// PersonalizationResult quantifies §2.3: engagement-oriented drift
// toward the profile, measured by the echo-chamber index.
type PersonalizationResult struct {
	NeutralIndex      float64
	PersonalizedIndex float64
	Drift             float64

	// CLIPPreserved: personalization must not destroy prompt
	// adherence of the generated media.
	NeutralCLIP      float64
	PersonalizedCLIP float64
}

// PersonalizationExperiment renders the travel blog neutrally and
// personalized and measures the drift.
func PersonalizationExperiment() (*PersonalizationResult, error) {
	profile := core.UserProfile{
		Interests: []string{"wildlife photography", "mountain summits", "glacier lakes"},
		Tone:      "enthusiastic",
	}
	collect := func(pz *core.Personalizer) ([]string, float64, error) {
		page := workload.TravelBlog()
		if pz != nil {
			pz.PersonalizeDoc(page.Placeholders())
		}
		// Personalizing rewrote the divs: read them from the document,
		// not the page's memo of the neutral ones.
		phs, _ := core.FindPlaceholders(page.Doc)
		var prompts []string
		for _, ph := range phs {
			if ph.Content.Type == core.ContentImage {
				prompts = append(prompts, ph.Content.Meta.Prompt)
			} else {
				for _, b := range ph.Content.Meta.Bullets {
					prompts = append(prompts, b)
				}
			}
		}
		proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			return nil, 0, err
		}
		_, rep, err := proc.Process(page.Doc)
		if err != nil {
			return nil, 0, err
		}
		var clip float64
		var n int
		for _, item := range rep.Items {
			if item.Type == core.ContentImage {
				clip += item.Alignment
				n++
			}
		}
		if n > 0 {
			clip /= float64(n)
		}
		return prompts, clip, nil
	}

	neutral, nclip, err := collect(nil)
	if err != nil {
		return nil, err
	}
	personal, pclip, err := collect(&core.Personalizer{Profile: profile, Strength: 1})
	if err != nil {
		return nil, err
	}
	res := &PersonalizationResult{
		NeutralIndex:      core.EchoChamberIndex(profile, neutral),
		PersonalizedIndex: core.EchoChamberIndex(profile, personal),
		NeutralCLIP:       nclip,
		PersonalizedCLIP:  pclip,
	}
	res.Drift = res.PersonalizedIndex - res.NeutralIndex
	return res, nil
}

func reportPersonalize(w io.Writer, _ bool) error {
	r, err := PersonalizationExperiment()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper §2.3: on-device personalization; \"potential for harm ... echo chamber\"\n\n")
	fmt.Fprintf(w, "echo-chamber index, neutral:      %.3f\n", r.NeutralIndex)
	fmt.Fprintf(w, "echo-chamber index, personalized: %.3f (drift +%.3f)\n", r.PersonalizedIndex, r.Drift)
	fmt.Fprintf(w, "prompt adherence:  %.3f -> %.3f (preserved)\n", r.NeutralCLIP, r.PersonalizedCLIP)
	return nil
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/workload"
)

// CapabilityRow is one cell of the §6.2 functionality matrix.
type CapabilityRow struct {
	Scenario   string
	Server     http2.GenAbility
	Client     http2.GenAbility
	Negotiated http2.GenAbility
	ServedMode string
	OK         bool
}

// CapabilityMatrix reproduces §6.2's basic functionality testing:
// "scenarios where both client and server support generated content,
// only one side supports generated content, and no side supports it.
// Except for the first scenario, in all other cases the communication
// defaulted to standard HTTP/2."
func CapabilityMatrix() ([]CapabilityRow, error) {
	cases := []struct {
		name           string
		server, client http2.GenAbility
	}{
		{"both-support", http2.GenFull, http2.GenFull},
		{"server-only", http2.GenFull, http2.GenNone},
		{"client-only", http2.GenNone, http2.GenFull},
		{"neither", http2.GenNone, http2.GenNone},
	}
	var rows []CapabilityRow
	for _, c := range cases {
		_, client, err := pipeClient(workload.NewsArticle(), &http2.Config{GenAbility: c.server}, c.client != http2.GenNone)
		if err != nil {
			return nil, err
		}
		res, err := client.Fetch(workload.ArticlePath)
		row := CapabilityRow{
			Scenario:   c.name,
			Server:     c.server,
			Client:     c.client,
			Negotiated: client.Negotiated(),
			OK:         err == nil,
		}
		if res != nil {
			row.ServedMode = res.Mode
		}
		client.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

func reportMatrix(w io.Writer, _ bool) (any, error) {
	rows, err := CapabilityMatrix()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "paper: only both-support uses generation; all else default HTTP/2\n")
	fmt.Fprintf(w, "%-14s %-18s %-18s %-18s %-12s %s\n",
		"scenario", "server", "client", "negotiated", "served", "ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-18s %-18s %-18s %-12s %v\n",
			r.Scenario, r.Server, r.Client, r.Negotiated, r.ServedMode, r.OK)
	}
	return rows, nil
}

// CDNRow is one mode of the §2.2 CDN sweep.
type CDNRow struct {
	Mode cdn.Mode

	CacheBytes      int64
	HitRate         float64
	BytesToUsers    int64
	BytesFromOrigin int64
	EdgeGenEnergyWh float64
	EmbodiedKg      float64
}

// CDNSweep runs the same heavy-tailed request stream against an edge
// node in each of the three modes: traditional media caching, prompt
// caching with edge generation, and prompt caching with client
// generation.
func CDNSweep(objects, requests int, capacity int64) ([]CDNRow, error) {
	objs := make([]cdn.Object, objects)
	rng := rand.New(rand.NewSource(5))
	for i := range objs {
		media := 15_000 + rng.Intn(110_000)
		objs[i] = cdn.Object{
			Key:         fmt.Sprintf("obj-%d", i),
			MediaBytes:  media,
			PromptBytes: 160 + rng.Intn(268),
			GenTime:     time.Duration(800+rng.Intn(900)) * time.Millisecond,
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(6)), 1.2, 1, uint64(objects-1))
	sequence := make([]int, requests)
	for i := range sequence {
		sequence[i] = int(zipf.Uint64())
	}

	var rows []CDNRow
	for _, mode := range []cdn.Mode{cdn.ModeTraditional, cdn.ModeEdgeGenerate, cdn.ModeClientGenerate} {
		node := cdn.NewEdgeNode(mode, capacity)
		for _, idx := range sequence {
			node.Request(objs[idx])
		}
		rows = append(rows, CDNRow{
			Mode:            mode,
			CacheBytes:      node.Used(),
			HitRate:         node.HitRate(),
			BytesToUsers:    node.Stats.BytesToUser,
			BytesFromOrigin: node.Stats.BytesFromOrigin,
			EdgeGenEnergyWh: node.Stats.EdgeGenEnergyWh,
			EmbodiedKg:      node.EmbodiedCarbonKg(),
		})
	}
	return rows, nil
}

func reportCDN(w io.Writer, _ bool) (any, error) {
	rows, err := CDNSweep(2000, 30000, 64<<20)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "paper §2.2: prompt caching keeps storage benefit; edge generation\n")
	fmt.Fprintf(w, "loses transmission benefit; energy trade-off at the edge\n")
	fmt.Fprintf(w, "%-16s %12s %8s %14s %14s %10s %12s\n",
		"mode", "cache[B]", "hit", "to users[B]", "from origin[B]", "gen[Wh]", "embodied[kg]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12d %7.1f%% %14d %14d %10.1f %12.6f\n",
			r.Mode, r.CacheBytes, 100*r.HitRate, r.BytesToUsers, r.BytesFromOrigin,
			r.EdgeGenEnergyWh, r.EmbodiedKg)
	}
	return rows, nil
}

// reportPlacement prints E17, the cdn package's placement model under
// its default load.
func reportPlacement(w io.Writer, _ bool) (any, error) {
	load := cdn.DefaultPlacementLoad()
	rows := cdn.PlacementSweep(load)
	fmt.Fprintf(w, "paper §7: traffic reduction \"provides more flexibility in cache placement,\n")
	fmt.Fprintf(w, "without breaching backbone traffic constraints\"; latency becomes minor\n")
	fmt.Fprintf(w, "(%.0f req/s, %.0f Gbps backbone, %.0f%% hit rate)\n\n",
		load.RequestsPerSecond, load.BackboneCapacityGbps, 100*load.HitRate)
	fmt.Fprintf(w, "%-14s %-7s %6s %14s %10s %14s %12s\n",
		"placement", "mode", "sites", "backbone", "feasible", "page latency", "rtt share")
	for _, r := range rows {
		mode := "media"
		if r.SWW {
			mode = "sww"
		}
		fmt.Fprintf(w, "%-14s %-7s %6d %11.3fGbps %10v %14v %11.2f%%\n",
			r.Placement.Name, mode, r.StorageSites, r.BackboneGbps, r.Feasible,
			r.PageLatency.Round(time.Millisecond), 100*r.LatencyShare)
	}
	return rows, nil
}

// VideoRow is one §3.2 video negotiation outcome.
type VideoRow struct {
	Requested core.VideoProfile
	Ability   http2.GenAbility
	Delivered core.VideoProfile
	Savings   float64
}

// VideoSweep quantifies §3.2's negotiated streaming savings.
func VideoSweep() []VideoRow {
	abilities := []http2.GenAbility{
		http2.GenNone,
		http2.GenBasic | http2.GenVideoFrameRate,
		http2.GenBasic | http2.GenVideoResolution,
		http2.GenBasic | http2.GenVideoFrameRate | http2.GenVideoResolution,
	}
	var rows []VideoRow
	for _, a := range abilities {
		rows = append(rows, VideoRow{
			Requested: core.Video4K60,
			Ability:   a,
			Delivered: core.NegotiateVideo(core.Video4K60, a),
			Savings:   core.VideoSavingsFactor(core.Video4K60, a),
		})
	}
	return rows
}

// reportVideo prints E13: the negotiation sweep, then the playback
// simulation of StreamingExperiment.
func reportVideo(w io.Writer, _ bool) (any, error) {
	rows := VideoSweep()
	fmt.Fprintf(w, "paper §3.2: 60->30fps halves data; 4K->HD saves 2.3x (7GB/h -> 3GB/h)\n")
	fmt.Fprintf(w, "%-34s %-24s %10s\n", "client ability", "delivered", "savings")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-24s %9.2fx\n", r.Ability, r.Delivered.Name, r.Savings)
	}
	srows, err := StreamingExperiment()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n10-minute 4K60 playback simulation (the evaluation §3.2 defers):\n")
	fmt.Fprintf(w, "%-24s %-22s %8s %9s %8s %10s %10s\n",
		"device", "ability", "wire", "savings", "rebuf", "rt-factor", "boost[Wh]")
	for _, r := range srows {
		rep := r.Report
		fmt.Fprintf(w, "%-24s %-22s %7.2fG %8.2fx %8d %10.2f %10.3f\n",
			r.Device, r.Ability, float64(rep.BytesDownloaded)/1e9,
			rep.SavingsFactor, rep.Rebuffers, rep.RealTimeFactor, rep.BoostEnergyWh)
	}
	return srows, nil
}

// AblationNegotiation compares the paper's SETTINGS-based capability
// advertisement against the per-request header alternative it
// implicitly rejects: SETTINGS costs 6 bytes once per connection,
// a header costs its field on every request.
type AblationNegotiation struct {
	SettingsBytesPerConn  int
	HeaderBytesPerRequest int
	RequestsPerConn       int
	SettingsTotalBytes    int
	HeaderTotalBytes      int
}

// NegotiationAblation computes the comparison for a typical
// connection carrying n requests.
func NegotiationAblation(requestsPerConn int) *AblationNegotiation {
	const settingEntry = 6 // 16-bit id + 32-bit value
	// "x-sww-gen-ability: 7" as an HPACK literal with incremental
	// indexing: ~22 bytes the first time, 1 byte indexed afterwards —
	// but both endpoints must still parse it per request, and
	// intermediaries see it per request. Use the first-time cost for
	// the header's connection setup plus 1 byte indexed per request.
	const headerFirst = 22
	const headerIndexed = 1
	a := &AblationNegotiation{
		SettingsBytesPerConn:  settingEntry,
		HeaderBytesPerRequest: headerIndexed,
		RequestsPerConn:       requestsPerConn,
		SettingsTotalBytes:    settingEntry,
	}
	a.HeaderTotalBytes = headerFirst + (requestsPerConn-1)*headerIndexed
	return a
}

// AblationPreload quantifies §4.1's pipeline-preloading choice on the
// Figure 2 page: total simulated load time with and without
// preloading.
type AblationPreload struct {
	Items             int
	PreloadLoadTime   time.Duration
	ReloadLoadTime    time.Duration
	GenerationTime    time.Duration
	ReloadOverheadPct float64
}

// PreloadAblation runs the Wikimedia page through a preloading and a
// reloading pipeline.
func PreloadAblation() (*AblationPreload, error) {
	res := &AblationPreload{Items: workload.WikimediaImageCount}
	for _, preload := range []bool{true, false} {
		page := workload.WikimediaLandscape()
		pl, err := genai.NewPipeline(device.ClassLaptop, imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			return nil, err
		}
		pl.Preload = preload
		proc := &core.PageProcessor{Pipeline: pl, Device: device.Laptop}
		_, report, err := proc.Process(page.Doc)
		if err != nil {
			return nil, err
		}
		if preload {
			res.PreloadLoadTime = report.SimLoadTime
			res.GenerationTime = report.SimGenTime
		} else {
			res.ReloadLoadTime = report.SimLoadTime
		}
	}
	res.ReloadOverheadPct = 100 * float64(res.ReloadLoadTime-res.PreloadLoadTime) /
		float64(res.GenerationTime+res.PreloadLoadTime)
	return res, nil
}

func reportAblations(w io.Writer, _ bool) (any, error) {
	n := NegotiationAblation(50)
	fmt.Fprintf(w, "SETTINGS vs per-request header (50 requests/conn):\n")
	fmt.Fprintf(w, "  SETTINGS total: %d B; header total: %d B\n",
		n.SettingsTotalBytes, n.HeaderTotalBytes)
	p, err := PreloadAblation()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "pipeline preloading (§4.1) on the %d-image page:\n", p.Items)
	fmt.Fprintf(w, "  preload load time: %v; per-invocation reload: %v (%.0f%% overhead)\n",
		p.PreloadLoadTime, p.ReloadLoadTime, p.ReloadOverheadPct)
	return p, nil
}

// StorageResult is the §2.1/§2.2 server-storage comparison.
type StorageResult struct {
	SWWBytes         int64
	TraditionalBytes int64
	Ratio            float64
}

// StorageComparison measures the full corpus's server footprint in
// both forms.
func StorageComparison() (*StorageResult, error) {
	srv, err := core.NewServer("", "")
	if err != nil {
		return nil, err
	}
	srv.AddPage(workload.WikimediaLandscape())
	srv.AddPage(workload.NewsArticle())
	srv.AddPage(workload.TravelBlog())
	sww, trad := srv.StorageBytes()
	return &StorageResult{
		SWWBytes:         sww,
		TraditionalBytes: trad,
		Ratio:            float64(trad) / float64(sww),
	}, nil
}

func reportStorage(w io.Writer, _ bool) (any, error) {
	s, err := StorageComparison()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "paper §2.1: servers store prompts rather than content\n\n")
	fmt.Fprintf(w, "SWW storage:         %d B\n", s.SWWBytes)
	fmt.Fprintf(w, "traditional storage: %d B\n", s.TraditionalBytes)
	fmt.Fprintf(w, "ratio:               %.1fx\n", s.Ratio)
	return s, nil
}

package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/workload"
)

// FastPathResult is E21: the generation fast path measured end to
// end. A generative client fetches the same prompt page repeatedly;
// the first fetch pays real synthesis (artifact-cache cold), repeats
// replay from the content-addressed cache. Simulated metrics must not
// move between cold and warm fetches — the cache accelerates the
// reproduction, not the modelled device.
type FastPathResult struct {
	Fetches int

	// ColdWall is the first fetch's wall-clock; WarmWall is the mean
	// over the remaining fetches; Speedup is their ratio.
	ColdWall time.Duration
	WarmWall time.Duration
	Speedup  float64

	// Deterministic replay checks: every warm fetch must byte-match
	// the cold fetch's assets and repeat its report.
	AssetsIdentical bool

	// Invariant simulated metrics (identical on every fetch).
	SimGenTime   time.Duration
	CompressionX float64

	ClientCache genai.ArtifactCacheStats
}

// FastPathSweep runs E21 on the §2.1 travel blog over a real h2
// connection. quick trims the warm-fetch count.
func FastPathSweep(quick bool) (*FastPathResult, error) {
	fetches := 30
	if quick {
		fetches = 5
	}

	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	srv.AddPage(workload.TravelBlog())
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	client, err := core.NewClient(cEnd, device.Laptop, proc)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	res := &FastPathResult{Fetches: fetches, AssetsIdentical: true}
	var coldAssets map[string][]byte
	var warmTotal time.Duration
	for i := 0; i < fetches; i++ {
		start := time.Now()
		fr, err := client.Fetch(workload.TravelBlogPath)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("fetch %d: %w", i, err)
		}
		if i == 0 {
			res.ColdWall = wall
			res.SimGenTime = fr.Report.SimGenTime
			res.CompressionX = fr.Report.MediaCompressionRatio()
			coldAssets = fr.Assets
			continue
		}
		warmTotal += wall
		if fr.Report.SimGenTime != res.SimGenTime {
			return nil, fmt.Errorf("fetch %d: SimGenTime %v, cold fetch %v — cache changed simulated accounting",
				i, fr.Report.SimGenTime, res.SimGenTime)
		}
		if len(fr.Assets) != len(coldAssets) {
			res.AssetsIdentical = false
		} else {
			for p, data := range coldAssets {
				if !bytes.Equal(fr.Assets[p], data) {
					res.AssetsIdentical = false
				}
			}
		}
	}
	res.WarmWall = warmTotal / time.Duration(fetches-1)
	if res.WarmWall > 0 {
		res.Speedup = float64(res.ColdWall) / float64(res.WarmWall)
	}
	if proc.Pipeline != nil && proc.Pipeline.Cache != nil {
		res.ClientCache = proc.Pipeline.Cache.Stats()
	}
	return res, nil
}

// reportFastpath prints E21 as JSON and fails unless the warm fetches
// byte-matched the cold one and hit the artifact cache.
func reportFastpath(w io.Writer, quick bool) error {
	rep, err := FastPathSweep(quick)
	if err != nil {
		return err
	}
	if err := writeJSON(w, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "cold fetch %.1fms, warm mean %.2fms over %d repeats (%.1fx); "+
		"client cache: %d hits / %d misses, %d entries, %d B\n",
		rep.ColdWall.Seconds()*1e3, rep.WarmWall.Seconds()*1e3, rep.Fetches-1, rep.Speedup,
		rep.ClientCache.Hits, rep.ClientCache.Misses, rep.ClientCache.Entries, rep.ClientCache.Bytes)
	fmt.Fprintf(w, "invariants: sim gen time %v, media compression %.1fx on every fetch\n",
		rep.SimGenTime, rep.CompressionX)
	switch {
	case !rep.AssetsIdentical:
		return fmt.Errorf("warm fetches did not byte-match the cold fetch's assets")
	case rep.ClientCache.Hits == 0:
		return fmt.Errorf("artifact cache recorded no hits across %d repeat fetches", rep.Fetches-1)
	}
	return nil
}

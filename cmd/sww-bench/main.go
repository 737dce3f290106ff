// Command sww-bench regenerates every table and figure of the paper's
// evaluation and prints each as a paper-vs-measured comparison.
//
// Usage:
//
//	sww-bench [-only t1|t2|fig2|steps|sizes|text|article|matrix|
//	                 energy|carbon|traffic|cdn|video|storage|ablations|
//	                 h3|upscale|personalize|placement|chaos|overload|
//	                 abuse|fastpath|telemetry|edgetier|selfheal|
//	                 originha|capacity]
//	          [-quick] [-capacity-out FILE]
//
// Without -only, all experiments run in order; an unknown key exits 2
// and lists the valid ones. -quick trims the
// heavier sweeps for CI smoke runs. -capacity-out writes the E27
// capacity curve as a benchmark-JSON artifact (the format
// sww-benchjson emits), so CI can archive it and gate goodput against
// a committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sww/internal/cdn"

	"sww/internal/experiments"
	_ "sww/internal/genai/imagegen"
	_ "sww/internal/genai/textgen"
)

func main() {
	only := flag.String("only", "", "run a single experiment")
	quick := flag.Bool("quick", false, "trim heavy sweeps for smoke runs")
	capOut := flag.String("capacity-out", "", "write the E27 capacity curve as benchmark JSON to this file")
	flag.Parse()
	quickMode = *quick
	capacityOut = *capOut

	all := []struct {
		key  string
		name string
		run  func() error
	}{
		{"matrix", "E2 §6.2 capability matrix", runMatrix},
		{"fig2", "E3 Figure 2: Wikimedia landscape page", runFig2},
		{"article", "E4 §6.2 text experiment: newspaper article", runArticle},
		{"t1", "E5 Table 1: ELO & CLIP, time per step", runTable1},
		{"steps", "E6a §6.3.1 inference-step sweep", runSteps},
		{"sizes", "E6b §6.3.1 image-size sweep", runSizes},
		{"text", "E7 §6.3.2 text-to-text models", runText},
		{"t2", "E8 Table 2: compression, time & energy", runTable2},
		{"energy", "E9 §6.4 transmit vs generate", runEnergy},
		{"carbon", "E10 §6.4 embodied carbon", runCarbon},
		{"traffic", "E11 §7 traffic projection", runTraffic},
		{"cdn", "E12 §2.2 CDN modes", runCDN},
		{"video", "E13 §3.2 video negotiation", runVideo},
		{"storage", "§2.1 server storage", runStorage},
		{"ablations", "design-choice ablations", runAblations},
		{"h3", "E14 §3.1 HTTP/3 negotiation parity", runH3},
		{"upscale", "E15 §2.2 content upscaling", runUpscale},
		{"personalize", "E16 §2.3 personalization & echo chamber", runPersonalize},
		{"placement", "E17 §7 cache-placement flexibility", runPlacement},
		{"chaos", "E18 fault injection & degradation ladder", runChaos},
		{"overload", "E19 server overload & load-shed ladder", runOverload},
		{"abuse", "E20 abuse-rate defense under attack", runAbuse},
		{"fastpath", "E21 generation fast path & artifact cache", runFastpath},
		{"telemetry", "E22 operational telemetry cross-check", runTelemetry},
		{"edgetier", "E23 edge tier failover & serve-stale chaos", runEdgeTier},
		{"selfheal", "E24 self-healing mesh: restart, push loss, peer-fill", runSelfHeal},
		{"originha", "E25 origin HA: durable log, failover, fencing, retry budget", runOriginHA},
		{"capacity", "E27 open-loop capacity model & knee", runCapacity},
	}
	if *only != "" {
		keys, known := "", false
		for _, e := range all {
			keys += " " + e.key
			known = known || e.key == *only
		}
		if !known {
			fmt.Fprintf(os.Stderr, "sww-bench: unknown experiment %q; -only takes one of:%s\n", *only, keys)
			os.Exit(2)
		}
	}
	failed := false
	for _, e := range all {
		if *only != "" && e.key != *only {
			continue
		}
		fmt.Printf("\n=== %s ===\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.key, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func runTable1() error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %10s %10s %10s %10s %12s %14s\n",
		"model", "paper ELO", "ELO", "paper CLIP", "CLIP", "laptop t/st", "workstn t/st")
	for _, r := range rows {
		lap, wkst := "–", "–"
		if r.LaptopStep > 0 {
			lap = fmt.Sprintf("%.2fs", r.LaptopStep.Seconds())
		}
		if r.WorkstationStep > 0 {
			wkst = fmt.Sprintf("%.2fs", r.WorkstationStep.Seconds())
		}
		fmt.Printf("%-14s %10.0f %10.0f %10.2f %10.3f %12s %14s\n",
			r.Model, r.PaperELO, r.ELO, r.PaperCLIP, r.CLIP, lap, wkst)
	}
	return nil
}

func runSteps() error {
	rows, err := experiments.StepSweep()
	if err != nil {
		return err
	}
	fmt.Printf("paper: CLIP ~flat from 10..60 steps, time linear in steps (laptop, SD3)\n")
	fmt.Printf("%6s %8s %10s\n", "steps", "CLIP", "gen time")
	for _, r := range rows {
		fmt.Printf("%6d %8.3f %9.1fs\n", r.Steps, r.CLIP, r.GenTime.Seconds())
	}
	return nil
}

func runSizes() error {
	rows, err := experiments.SizeSweep()
	if err != nil {
		return err
	}
	fmt.Printf("paper anchors (SD3, 15 steps): laptop 7/19/310s, workstation 1.0/1.7/6.2s\n")
	fmt.Printf("%10s %12s %14s\n", "size", "laptop", "workstation")
	for _, r := range rows {
		fmt.Printf("%5dx%-4d %11.1fs %13.2fs\n", r.Dim, r.Dim, r.Laptop.Seconds(), r.Workstation.Seconds())
	}
	return nil
}

func runText() error {
	rows, err := experiments.Text2Text()
	if err != nil {
		return err
	}
	fmt.Printf("paper: SBERT 0.82-0.91; overshoot mean ~1.3%%, quartiles often >10%%, max 20%%;\n")
	fmt.Printf("       times 6.98-14.33s (workstation) / 16.06-34.04s (laptop); benefit only 2.5x\n")
	fmt.Printf("%-18s %11s %7s %9s %9s %9s %8s\n",
		"model", "paper SBERT", "SBERT", "ovsh mean", "p25", "p75", "speedup")
	for _, r := range rows {
		fmt.Printf("%-18s %11.2f %7.3f %8.1f%% %8.1f%% %8.1f%% %7.2fx\n",
			r.Model, r.PaperSBERT, r.SBERT,
			100*r.OvershootMean, 100*r.OvershootP25, 100*r.OvershootP75,
			r.SpeedupWorkstation)
	}
	fmt.Printf("\n%-18s", "gen time (wkst/laptop)")
	for _, w := range []int{50, 100, 150, 250} {
		fmt.Printf(" %12dw", w)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-18s", r.Model)
		for _, w := range []int{50, 100, 150, 250} {
			t := r.Times[w]
			fmt.Printf(" %5.1f/%-6.1fs", t.Workstation.Seconds(), t.Laptop.Seconds())
		}
		fmt.Println()
	}
	return nil
}

func runTable2() error {
	rows, err := experiments.Table2()
	if err != nil {
		return err
	}
	fmt.Printf("paper rows: 19.14x/7s/0.02Wh/1.0s/0.04Wh; 76.56x/19s/0.05Wh/1.7s/0.06Wh;\n")
	fmt.Printf("            306.24x/310s/0.90Wh/6.2s/0.21Wh; 1.93x/32s/0.01Wh/13.0s/0.51Wh\n")
	fmt.Printf("%-16s %9s %9s %8s %10s %10s %10s %10s\n",
		"media", "size[B]", "meta[B]", "ratio", "lap gen", "lap Wh", "wkst gen", "wkst Wh")
	for _, r := range rows {
		fmt.Printf("%-16s %9d %9d %8.2f %9.1fs %10.3f %9.1fs %10.3f\n",
			r.Label, r.SizeBytes, r.MetadataBytes, r.Ratio,
			r.LaptopGen.Seconds(), r.LaptopEnergyWh,
			r.WorkstationGen.Seconds(), r.WorkstationWhGen)
	}
	return nil
}

func runFig2() error {
	r, err := experiments.Fig2Wikimedia()
	if err != nil {
		return err
	}
	fmt.Printf("paper: 49 images, 1400kB -> 8.92kB (157x, worst case 68x);\n")
	fmt.Printf("       laptop 310s (6.32s/image), workstation ~49s (~1s/image)\n\n")
	fmt.Printf("images:                 %d\n", r.Images)
	fmt.Printf("original media:         %d B\n", r.OriginalBytes)
	fmt.Printf("prompt metadata:        %d B\n", r.MetadataBytes)
	fmt.Printf("compression factor:     %.1fx (worst case %.1fx)\n", r.CompressionFactor, r.WorstCaseFactor)
	fmt.Printf("wire bytes generative:  %d B\n", r.GenerativeWireBytes)
	fmt.Printf("wire bytes traditional: %d B (page-level factor %.1fx)\n", r.TraditionalWireBytes, r.WireFactor)
	fmt.Printf("laptop generation:      %.0fs (%.2fs/image), %.2f Wh\n",
		r.LaptopGen.Seconds(), r.LaptopPerImage.Seconds(), r.LaptopGenWh)
	fmt.Printf("server generation:      %.0fs (%.2fs/image)\n",
		r.ServerGen.Seconds(), r.ServerPerImage.Seconds())
	fmt.Printf("mean CLIP of page:      %.3f\n", r.MeanCLIP)
	fmt.Printf("transmit energy saved:  %.4f Wh\n", r.TransmitSavedWh)
	return nil
}

func runArticle() error {
	r, err := experiments.TextArticle()
	if err != nil {
		return err
	}
	fmt.Printf("paper: 2400B -> 778B (3.1x); laptop 41.9s, workstation >10s\n\n")
	fmt.Printf("original:        %d B\n", r.OriginalBytes)
	fmt.Printf("prompt form:     %d B\n", r.PromptBytes)
	fmt.Printf("compression:     %.2fx\n", r.Compression)
	fmt.Printf("laptop gen:      %.1fs\n", r.LaptopGen.Seconds())
	fmt.Printf("workstation gen: %.1fs\n", r.WorkstationGen.Seconds())
	fmt.Printf("SBERT vs source: %.3f\n", r.SBERT)
	return nil
}

func runMatrix() error {
	rows, err := experiments.CapabilityMatrix()
	if err != nil {
		return err
	}
	fmt.Printf("paper: only both-support uses generation; all else default HTTP/2\n")
	fmt.Printf("%-14s %-18s %-18s %-18s %-12s %s\n",
		"scenario", "server", "client", "negotiated", "served", "ok")
	for _, r := range rows {
		fmt.Printf("%-14s %-18s %-18s %-18s %-12s %v\n",
			r.Scenario, r.Server, r.Client, r.Negotiated, r.ServedMode, r.OK)
	}
	return nil
}

func runEnergy() error {
	c, err := experiments.CompareEnergy()
	if err != nil {
		return err
	}
	fmt.Printf("paper: large image transmit ~10ms vs 6.2s generation (620x);\n")
	fmt.Printf("       transmit ~0.005Wh = 2.5%% of workstation generation (0.21Wh)\n\n")
	fmt.Printf("transmit (100Mbps):  %v, %.4f Wh\n", c.TransmitTime, c.TransmitWh)
	fmt.Printf("workstation gen:     %.1fs, %.3f Wh\n", c.GenerationTime.Seconds(), c.GenerationWh)
	fmt.Printf("generation slowdown: %.0fx\n", c.SlowdownFactor)
	fmt.Printf("transmit share:      %.1f%%\n", 100*c.TransmitShare)
	fmt.Printf("laptop gen energy:   %.2f Wh\n", c.LaptopGenerationWh)
	return nil
}

func runCarbon() error {
	fig2, err := experiments.Fig2Wikimedia()
	if err != nil {
		return err
	}
	c := experiments.CarbonSavings(fig2.CompressionFactor)
	fmt.Printf("paper: 6-7 kgCO2e/TB SSD; exabyte-scale compression saves millions of kg\n\n")
	fmt.Printf("per TB:                %.1f kgCO2e\n", c.PerTBKg)
	fmt.Printf("1 EB media x10 sites:  %.2e kgCO2e\n", c.MediaExabyteKg)
	fmt.Printf("as prompts (%.0fx):     %.2e kgCO2e\n", fig2.CompressionFactor, c.PromptExabyteKg)
	fmt.Printf("saved:                 %.2e kgCO2e (millions: %v)\n", c.SavedKg, c.SavedKg > 1e6)
	return nil
}

func runTraffic() error {
	fig2, err := experiments.Fig2Wikimedia()
	if err != nil {
		return err
	}
	t := experiments.ProjectTraffic(fig2.CompressionFactor)
	fmt.Printf("paper: 2-3 EB/month mobile web -> tens of PB at ~two orders of magnitude\n\n")
	fmt.Printf("baseline:   %.1f EB/month\n", t.BaselineEBPerMonth)
	fmt.Printf("compression: %.0fx (measured, Figure 2 media ratio)\n", t.CompressionFactor)
	fmt.Printf("projected:  %.1f PB/month\n", t.ProjectedPBPerMonth)
	return nil
}

func runCDN() error {
	rows, err := experiments.CDNSweep(2000, 30000, 64<<20)
	if err != nil {
		return err
	}
	fmt.Printf("paper §2.2: prompt caching keeps storage benefit; edge generation\n")
	fmt.Printf("loses transmission benefit; energy trade-off at the edge\n")
	fmt.Printf("%-16s %12s %8s %14s %14s %10s %12s\n",
		"mode", "cache[B]", "hit", "to users[B]", "from origin[B]", "gen[Wh]", "embodied[kg]")
	for _, r := range rows {
		fmt.Printf("%-16s %12d %7.1f%% %14d %14d %10.1f %12.6f\n",
			r.Mode, r.CacheBytes, 100*r.HitRate, r.BytesToUsers, r.BytesFromOrigin,
			r.EdgeGenEnergyWh, r.EmbodiedKg)
	}
	return nil
}

func runVideo() error {
	rows := experiments.VideoSweep()
	fmt.Printf("paper §3.2: 60->30fps halves data; 4K->HD saves 2.3x (7GB/h -> 3GB/h)\n")
	fmt.Printf("%-34s %-24s %10s\n", "client ability", "delivered", "savings")
	for _, r := range rows {
		fmt.Printf("%-34s %-24s %9.2fx\n", r.Ability, r.Delivered.Name, r.Savings)
	}
	srows, err := experiments.StreamingExperiment()
	if err != nil {
		return err
	}
	fmt.Printf("\n10-minute 4K60 playback simulation (the evaluation §3.2 defers):\n")
	fmt.Printf("%-24s %-22s %8s %9s %8s %10s %10s\n",
		"device", "ability", "wire", "savings", "rebuf", "rt-factor", "boost[Wh]")
	for _, r := range srows {
		rep := r.Report
		fmt.Printf("%-24s %-22s %7.2fG %8.2fx %8d %10.2f %10.3f\n",
			r.Device, r.Ability, float64(rep.BytesDownloaded)/1e9,
			rep.SavingsFactor, rep.Rebuffers, rep.RealTimeFactor, rep.BoostEnergyWh)
	}
	return nil
}

func runStorage() error {
	s, err := experiments.StorageComparison()
	if err != nil {
		return err
	}
	fmt.Printf("paper §2.1: servers store prompts rather than content\n\n")
	fmt.Printf("SWW storage:         %d B\n", s.SWWBytes)
	fmt.Printf("traditional storage: %d B\n", s.TraditionalBytes)
	fmt.Printf("ratio:               %.1fx\n", s.Ratio)
	return nil
}

func runH3() error {
	rows, err := experiments.H3CapabilityMatrix()
	if err != nil {
		return err
	}
	fmt.Printf("paper §3.1: \"similar use of SETTINGS under HTTP/3 can allow to advertise\"\n")
	fmt.Printf("%-14s %-18s %s\n", "scenario", "negotiated", "ok")
	for _, r := range rows {
		fmt.Printf("%-14s %-18s %v\n", r.Scenario, r.Negotiated, r.OK)
	}
	// Only both-support may negotiate an ability, and every scenario
	// must still complete its request.
	for _, r := range rows {
		if !r.OK || (r.Negotiated != 0) != (r.Scenario == "both-support") {
			return fmt.Errorf("E14 %s: negotiated %v, request ok %v", r.Scenario, r.Negotiated, r.OK)
		}
	}
	return nil
}

func runUpscale() error {
	r, err := experiments.UpscaleExperiment()
	if err != nil {
		return err
	}
	fmt.Printf("paper §2.2: upscaling reduces unique-content storage and is\n")
	fmt.Printf("\"usually faster than content generation, with sub-second inference\"\n\n")
	fmt.Printf("photos:            %d (128\u00b2 stored, 512\u00b2 rendered)\n", r.Photos)
	fmt.Printf("wire, upscale:     %d B\n", r.UpscaleWireBytes)
	fmt.Printf("wire, traditional: %d B (%.1fx savings)\n", r.TraditionalWireBytes, r.WireSavings)
	fmt.Printf("upscale time:      %.2fs (laptop, all photos)\n", r.UpscaleTime.Seconds())
	fmt.Printf("generate instead:  %.1fs (%.0fx slower)\n", r.GenerateTime.Seconds(), r.SpeedFactor)
	return nil
}

func runPersonalize() error {
	r, err := experiments.PersonalizationExperiment()
	if err != nil {
		return err
	}
	fmt.Printf("paper §2.3: on-device personalization; \"potential for harm ... echo chamber\"\n\n")
	fmt.Printf("echo-chamber index, neutral:      %.3f\n", r.NeutralIndex)
	fmt.Printf("echo-chamber index, personalized: %.3f (drift +%.3f)\n", r.PersonalizedIndex, r.Drift)
	fmt.Printf("prompt adherence:  %.3f -> %.3f (preserved)\n", r.NeutralCLIP, r.PersonalizedCLIP)
	return nil
}

func runPlacement() error {
	load := cdn.DefaultPlacementLoad()
	rows := cdn.PlacementSweep(load)
	fmt.Printf("paper §7: traffic reduction \"provides more flexibility in cache placement,\n")
	fmt.Printf("without breaching backbone traffic constraints\"; latency becomes minor\n")
	fmt.Printf("(%.0f req/s, %.0f Gbps backbone, %.0f%% hit rate)\n\n",
		load.RequestsPerSecond, load.BackboneCapacityGbps, 100*load.HitRate)
	fmt.Printf("%-14s %-7s %6s %14s %10s %14s %12s\n",
		"placement", "mode", "sites", "backbone", "feasible", "page latency", "rtt share")
	for _, r := range rows {
		mode := "media"
		if r.SWW {
			mode = "sww"
		}
		fmt.Printf("%-14s %-7s %6d %11.3fGbps %10v %14v %11.2f%%\n",
			r.Placement.Name, mode, r.StorageSites, r.BackboneGbps, r.Feasible,
			r.PageLatency.Round(time.Millisecond), 100*r.LatencyShare)
	}
	return nil
}

func runChaos() error {
	rows, err := experiments.ChaosSweep()
	if err != nil {
		return err
	}
	fmt.Printf("resilient fetch of the travel blog under injected faults;\n")
	fmt.Printf("every recovering row must render the clean row's asset count\n")
	fmt.Printf("%-22s %-4s %8s %6s %-12s %7s %9s %s\n",
		"scenario", "ok", "attempts", "dials", "mode", "assets", "wire[B]", "note")
	for _, r := range rows {
		note := ""
		if r.Degraded {
			note = "degraded: " + r.DegradeReason
		} else if r.Err != nil {
			note = r.Err.Error()
		}
		if len(note) > 48 {
			note = note[:48] + "…"
		}
		fmt.Printf("%-22s %-4v %8d %6d %-12s %7d %9d %s\n",
			r.Scenario, r.OK, r.Attempts, r.Dials, r.Mode, r.Assets, r.WireBytes, note)
	}
	return nil
}

// quickMode mirrors the -quick flag for experiments with a trimmed
// variant.
var quickMode bool

func runOverload() error {
	rows, err := experiments.OverloadSweep(quickMode)
	if err != nil {
		return err
	}
	fmt.Printf("capacity-limited generative server at multiples of admitted generation\n")
	fmt.Printf("capacity; healthy signature: flat goodput beyond 1x, excess shed as 503.\n")
	fmt.Printf("p50/p99 measure from each request's intended send slot.\n")
	fmt.Printf("%-5s %9s %6s %5s %6s %5s %9s %7s %9s %9s %6s\n",
		"mult", "offered", "reqs", "ok", "shed", "err", "goodput", "shed%", "p50", "p99", "flips")
	for _, r := range rows {
		fmt.Printf("%4.1fx %7.0f/s %6d %5d %6d %5d %7.0f/s %6.1f%% %9v %9v %6d\n",
			r.Multiplier, r.OfferedRPS, r.Requests, r.OK, r.Shed, r.Errors,
			r.GoodputRPS, 100*r.ShedRate,
			r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond),
			r.Stats.ShedPolicyFlip)
	}
	return nil
}

func runAblations() error {
	n := experiments.NegotiationAblation(50)
	fmt.Printf("SETTINGS vs per-request header (50 requests/conn):\n")
	fmt.Printf("  SETTINGS total: %d B; header total: %d B\n",
		n.SettingsTotalBytes, n.HeaderTotalBytes)

	p, err := experiments.PreloadAblation()
	if err != nil {
		return err
	}
	fmt.Printf("pipeline preloading (§4.1) on the %d-image page:\n", p.Items)
	fmt.Printf("  preload load time: %v; per-invocation reload: %v (%.0f%% overhead)\n",
		p.PreloadLoadTime, p.ReloadLoadTime, p.ReloadOverheadPct)
	return nil
}

// runAbuse prints the E20 report as JSON (the acceptance numbers —
// legit goodput with and without attack, shed/GOAWAY counts — are the
// deliverable, so machine-readable output beats a table here) and
// fails if the defense missed its bars.
func runAbuse() error {
	rep, err := experiments.AbuseSweep(quickMode)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	fmt.Printf("legit goodput %.0f/s baseline vs %.0f/s under attack (ratio %.2f)\n",
		rep.BaselineGoodputRPS, rep.AttackGoodputRPS, rep.GoodputRatio)
	fmt.Printf("rapid-reset attacker: %d conns, %d pairs, %d calm RSTs, %d GOAWAYs; "+
		"ping flooder: %d conns, %d pings, %d GOAWAYs\n",
		rep.RapidReset.Conns, rep.RapidReset.Sent, rep.RapidReset.CalmRSTs, rep.RapidReset.GoAways,
		rep.PingFlood.Conns, rep.PingFlood.Sent, rep.PingFlood.GoAways)
	if rep.GoodputRatio < 0.75 {
		return fmt.Errorf("legit goodput under attack fell to %.2fx of baseline (want >= 0.75)",
			rep.GoodputRatio)
	}
	if rep.RapidReset.GoAways == 0 && rep.RapidReset.CalmRSTs == 0 {
		return fmt.Errorf("rapid-reset attacker was never escalated")
	}
	if rep.PingFlood.GoAways == 0 {
		return fmt.Errorf("ping flooder was never killed")
	}
	return nil
}

func runFastpath() error {
	rep, err := experiments.FastPathSweep(quickMode)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	fmt.Printf("cold fetch %.1fms, warm mean %.2fms over %d repeats (%.1fx); "+
		"client cache: %d hits / %d misses, %d entries, %d B\n",
		rep.ColdWall.Seconds()*1e3, rep.WarmWall.Seconds()*1e3, rep.Fetches-1, rep.Speedup,
		rep.ClientCache.Hits, rep.ClientCache.Misses, rep.ClientCache.Entries, rep.ClientCache.Bytes)
	fmt.Printf("invariants: sim gen time %v, media compression %.1fx on every fetch\n",
		rep.SimGenTime, rep.CompressionX)
	if !rep.AssetsIdentical {
		return fmt.Errorf("warm fetches did not byte-match the cold fetch's assets")
	}
	if rep.ClientCache.Hits == 0 {
		return fmt.Errorf("artifact cache recorded no hits across %d repeat fetches", rep.Fetches-1)
	}
	return nil
}

// runEdgeTier prints E23 as JSON (the acceptance numbers are the
// deliverable) and fails if the edge tier missed its availability
// bars: stale serving at >= 0.8x baseline goodput through an origin
// blackhole, a sub-1% client error rate with one of three edges dead,
// a reshard matching LookupN's prediction, and a partition-delayed
// invalidation reconciled on reconnect.
func runEdgeTier() error {
	rep, err := experiments.EdgeTierSweep(quickMode)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	fmt.Printf("goodput: baseline %.0f/s, origin blackholed %.0f/s (%.2fx, %d stale serves)\n",
		rep.Baseline.GoodputRPS, rep.Blackhole.GoodputRPS, rep.StaleGoodputRatio, rep.StaleServes)
	fmt.Printf("edge kill: error rate %.2f%% over %d fetches, %d failovers; "+
		"reshard of %d keys correct: %v\n",
		rep.KillErrorRate*100, rep.Kill.Fetches, rep.Failovers, rep.ReshardKeys, rep.ReshardCorrect)
	fmt.Printf("partition: warm copy served %v, reconciled in %v, unpublished page gone %v\n",
		rep.PartitionWarmServed, rep.ReconciledIn.Round(time.Millisecond), rep.InvalidatedGone)
	if rep.StaleServes == 0 {
		return fmt.Errorf("origin blackhole produced no stale serves")
	}
	if rep.StaleGoodputRatio < 0.8 {
		return fmt.Errorf("stale goodput fell to %.2fx of baseline (want >= 0.8)", rep.StaleGoodputRatio)
	}
	if rep.KillErrorRate >= 0.01 {
		return fmt.Errorf("error rate with one edge dead = %.2f%% (want < 1%%)", rep.KillErrorRate*100)
	}
	if !rep.ReshardCorrect {
		return fmt.Errorf("reshard after edge death did not match LookupN's prediction")
	}
	if !rep.PartitionWarmServed {
		return fmt.Errorf("partitioned edge dropped its warm copy")
	}
	if !rep.InvalidatedGone {
		return fmt.Errorf("invalidation issued during the partition never landed")
	}
	return nil
}

// runSelfHeal prints E24 as JSON and fails if the mesh missed its
// self-healing bars: a killed edge restarts warm from its snapshot
// with zero origin pulls and reconciles the invalidations it missed;
// pushes lost to a partition are repaired by the anti-entropy poller
// shortly after the heal; and a cold edge fills from its ring peer at
// >= 0.9x the warm edge's serve-stale goodput with the origin down.
func runSelfHeal() error {
	rep, err := experiments.SelfHealSweep(quickMode)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	fmt.Printf("warm restart: %d snapshot entries, %d warm hits, %d origin pulls; "+
		"seq reconciled %v, stale entry dropped %v\n",
		rep.SnapshotEntries, rep.WarmHits, rep.RestartPulls,
		rep.SeqReconciled, rep.RestartInvalGone)
	fmt.Printf("push loss: healthy push in %v; %d invalidations lost to the partition, "+
		"reconciled %v after heal (%.1f repair intervals of %v)\n",
		rep.PushLatency.Round(time.Microsecond), rep.LostInvals,
		rep.ReconcileAfter.Round(time.Millisecond), rep.ReconcileBounds, rep.PollInterval)
	fmt.Printf("peer-fill: baseline %.0f/s, cold edge %.0f/s (%.2fx); "+
		"%d fills, %d peer serves\n",
		rep.Baseline.GoodputRPS, rep.PeerFill.GoodputRPS, rep.FillGoodputRatio,
		rep.PeerFills, rep.PeerServes)
	if rep.RestartPulls != 0 {
		return fmt.Errorf("warm restart pulled the origin %d times (want 0)", rep.RestartPulls)
	}
	if !rep.SeqReconciled {
		return fmt.Errorf("restarted edge never caught up with the invalidation feed")
	}
	if !rep.RestartInvalGone {
		return fmt.Errorf("invalidation issued during the outage was served stale after restart")
	}
	if rep.PushApplied == 0 {
		return fmt.Errorf("healthy-path push was never applied")
	}
	// "Shortly after the heal": one jittered poll tick plus the error
	// backoff the partition built up — comfortably inside 10 intervals.
	if rep.ReconcileBounds > 10 {
		return fmt.Errorf("anti-entropy took %.1f repair intervals (want <= 10)", rep.ReconcileBounds)
	}
	if rep.PeerFills == 0 {
		return fmt.Errorf("cold edge never peer-filled")
	}
	if rep.FillGoodputRatio < 0.9 {
		return fmt.Errorf("peer-fill goodput fell to %.2fx of serve-stale baseline (want >= 0.9)",
			rep.FillGoodputRatio)
	}
	return nil
}

// runOriginHA prints E25 as JSON and fails if origin high availability
// missed its bars: a restarted origin resumes its durable sequence and
// the edge reconciles with zero resets; a killed primary's standby
// promotes with zero lost sequences and the edge fails over to it; the
// restarted zombie is epoch-fenced; and the retry budget holds a
// blackhole storm's upstream attempts to burst + ratio x pulls.
func runOriginHA() error {
	rep, err := experiments.OriginHASweep(quickMode)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	fmt.Printf("warm restart: seq %d -> %d, %d edge resets, caught up %v\n",
		rep.SeqBeforeRestart, rep.SeqAfterRestart, rep.RestartResets, rep.RestartCaughtUp)
	fmt.Printf("failover: primary died at seq %d; standby promoted to epoch %d at seq %d "+
		"in %v (%d lost seqs); edge failovers %d, resets %d, fresh invalidation served %v\n",
		rep.PrimarySeqAtKill, rep.PromotedEpoch, rep.PromotedSeq,
		rep.FailoverAfter.Round(time.Millisecond), rep.LostSeqs,
		rep.EdgeFailovers, rep.FailoverResets, rep.FreshInvalServed)
	fmt.Printf("fencing: zombie returned at epoch %d, fenced %v (%d refusals); "+
		"edge refused %d stale-epoch feeds\n",
		rep.ZombieEpoch, rep.ZombieFenced, rep.FenceRefusals, rep.EdgeEpochFenced)
	fmt.Printf("retry storm: %d pulls vs blackholed origin; budgeted %d retries "+
		"(ceiling %.0f, exhausted %d), unbudgeted %d retries\n",
		rep.StormFetches, rep.BudgetedRetries, rep.RetryCeiling,
		rep.BudgetExhausted, rep.UnbudgetedRetries)
	if rep.RestartResets != 0 {
		return fmt.Errorf("origin restart flushed the edge %d times (want 0)", rep.RestartResets)
	}
	if !rep.RestartCaughtUp {
		return fmt.Errorf("edge never reconciled the post-restart feed")
	}
	if rep.LostSeqs != 0 {
		return fmt.Errorf("failover lost %d invalidation sequences (want 0)", rep.LostSeqs)
	}
	if rep.EdgeFailovers == 0 {
		return fmt.Errorf("edge never adopted the promoted standby's epoch")
	}
	if rep.FailoverResets != 0 {
		return fmt.Errorf("failover flushed the edge %d times (want 0)", rep.FailoverResets)
	}
	if !rep.FreshInvalServed {
		return fmt.Errorf("post-failover invalidation was not refilled fresh")
	}
	if !rep.ZombieFenced {
		return fmt.Errorf("restarted old primary was never fenced")
	}
	if rep.EdgeEpochFenced == 0 {
		return fmt.Errorf("edge accepted the zombie's stale-epoch push")
	}
	// The budget's whole point: retries bounded by deposit flow, not by
	// MaxAttempts x pulls. Allow one bucket of slack for rounding.
	if float64(rep.BudgetedRetries) > rep.RetryCeiling+float64(rep.BudgetBurst) {
		return fmt.Errorf("budgeted storm spent %d retries (ceiling %.0f)",
			rep.BudgetedRetries, rep.RetryCeiling)
	}
	if rep.BudgetExhausted == 0 {
		return fmt.Errorf("retry budget never reported exhaustion under a storm")
	}
	return nil
}

// runTelemetry prints E22: the shed ladder observed purely through
// the ops surface (-ops-addr's registry, trace ring and event log),
// with per-outcome request counts, latency percentiles, and the
// counters-equal-traces invariant.
func runTelemetry() error {
	rep, err := experiments.TelemetrySweep(quickMode)
	if err != nil {
		return err
	}
	fmt.Printf("per-outcome requests and latency, read back from the ops registry:\n")
	fmt.Printf("%-14s %9s %9s %9s %9s\n", "outcome", "requests", "p50", "p95", "p99")
	for _, r := range rep.Rows {
		fmt.Printf("%-14s %9d %7.2fms %7.2fms %7.2fms\n",
			r.Outcome, r.Requests, r.P50ms, r.P95ms, r.P99ms)
	}
	fmt.Printf("traces: %d finished / %d total; events: %d; counters==traces: %v\n",
		rep.TracesFinished, rep.TracesTotal, rep.EventsTotal, rep.CountersMatchTraces)
	fmt.Printf("client-side paced loops: p50/p99 %.2f/%.2fms from intended slots\n",
		rep.ClientSchedP50ms, rep.ClientSchedP99ms)
	if !rep.CountersMatchTraces {
		return fmt.Errorf("per-outcome counters do not sum to finished traces")
	}
	return nil
}

// capacityOut mirrors the -capacity-out flag: where runCapacity
// writes the E27 curve as a benchmark-JSON artifact.
var capacityOut string

// runCapacity prints E27: the calibrated capacity model, the measured
// open-loop capacity curve with its schedule-based latency tails, the
// interpolated knee from two identical-seed runs, and the diurnal
// demonstration leg.
func runCapacity() error {
	res, err := experiments.CapacitySweep(quickMode)
	if err != nil {
		return err
	}
	fmt.Printf("model: %d workers × %v hold → %.0f gen/s; mix %.0f%% incapable; ",
		res.GenWorkers, res.GenHold, res.GenCapacityRPS, 100*res.IncapableShare)
	fmt.Printf("Zipf(1.1) over %d pages, cache = top %d (miss share %.2f)\n",
		res.CorpusPages, res.CacheTopPages, res.MissShare)
	fmt.Printf("predicted knee %.0f/s (shed > %.0f%%)\n",
		res.PredictedKneeRPS, 100*experiments.KneeShedThreshold)
	fmt.Printf("%-5s %9s %9s %6s %6s %5s %4s %9s %6s %6s %8s %8s %8s\n",
		"mult", "offered", "realized", "reqs", "ok", "shed", "err", "goodput", "gp_x", "shed%", "p50", "p95", "p99")
	for _, r := range res.Rows {
		fmt.Printf("%4.1fx %7.0f/s %7.0f/s %6d %6d %5d %4d %7.0f/s %6.2f %5.1f%% %8v %8v %8v\n",
			r.Multiplier, r.OfferedRPS, r.RealizedRPS, r.Requests, r.OK, r.Shed, r.Errors,
			r.GoodputRPS, r.GoodputX, 100*r.ShedRate,
			r.P50.Round(time.Millisecond), r.P95.Round(time.Millisecond), r.P99.Round(time.Millisecond))
	}
	switch {
	case res.KneeRPS <= 0:
		fmt.Printf("knee: not reached within the sweep\n")
	default:
		delta := 0.0
		if res.KneeRPS2 > 0 {
			delta = 100 * (res.KneeRPS2 - res.KneeRPS) / res.KneeRPS
		}
		fmt.Printf("measured knee %.0f/s (run2 %.0f/s, delta %+.1f%%; knee_x %.2f)\n",
			res.KneeRPS, res.KneeRPS2, delta, res.KneeRPS/res.GenCapacityRPS)
	}
	if res.DiurnalPeakShed >= 0 {
		fmt.Printf("diurnal day at knee rate: peak shed %.1f%%, trough shed %.1f%%\n",
			100*res.DiurnalPeakShed, 100*res.DiurnalTroughShed)
	}
	if capacityOut != "" {
		if err := writeCapacityArtifact(capacityOut, res); err != nil {
			return fmt.Errorf("writing %s: %w", capacityOut, err)
		}
		fmt.Printf("capacity artifact written to %s\n", capacityOut)
	}
	return nil
}

// writeCapacityArtifact renders the E27 result in the benchmark-JSON
// shape sww-benchjson emits, so the curve can be merged into a PR
// artifact and gated (goodput_x) against a committed baseline.
func writeCapacityArtifact(path string, res *experiments.CapacityResult) error {
	type benchResult struct {
		Name       string             `json:"name"`
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	doc := struct {
		Env     map[string]string `json:"env,omitempty"`
		Results []benchResult     `json:"results"`
	}{
		Env: map[string]string{"experiment": "E27-capacity"},
	}
	for _, r := range res.Rows {
		doc.Results = append(doc.Results, benchResult{
			Name:       fmt.Sprintf("capacity/mult=%.2f", r.Multiplier),
			Iterations: int64(r.Requests),
			Metrics: map[string]float64{
				"offered_rps":  r.OfferedRPS,
				"realized_rps": r.RealizedRPS,
				"goodput_rps":  r.GoodputRPS,
				"goodput_x":    r.GoodputX,
				"goodput_frac": r.GoodputFrac,
				"shed_rate":    r.ShedRate,
				"errors":       float64(r.Errors),
				"p50_ms":       float64(r.P50) / float64(time.Millisecond),
				"p95_ms":       float64(r.P95) / float64(time.Millisecond),
				"p99_ms":       float64(r.P99) / float64(time.Millisecond),
				"cache_hits":   float64(r.Stats.CacheHits),
			},
		})
	}
	knee := benchResult{
		Name: "capacity/knee",
		Metrics: map[string]float64{
			"knee_rps":           res.KneeRPS,
			"knee_rps_run2":      res.KneeRPS2,
			"predicted_knee_rps": res.PredictedKneeRPS,
			"gen_capacity_rps":   res.GenCapacityRPS,
			"incapable_share":    res.IncapableShare,
			"miss_share":         res.MissShare,
		},
	}
	if res.GenCapacityRPS > 0 {
		knee.Metrics["knee_x"] = res.KneeRPS / res.GenCapacityRPS
	}
	doc.Results = append(doc.Results, knee)
	if res.DiurnalPeakShed >= 0 {
		doc.Results = append(doc.Results, benchResult{
			Name: "capacity/diurnal",
			Metrics: map[string]float64{
				"peak_shed_rate":   res.DiurnalPeakShed,
				"trough_shed_rate": res.DiurnalTroughShed,
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

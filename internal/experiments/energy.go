package experiments

import (
	"fmt"
	"io"
	"time"

	"sww/internal/device"
)

// EnergyComparison is §6.4's transmit-vs-generate analysis for the
// large (1024×1024) image.
type EnergyComparison struct {
	// TransmitTime on a typical 100 Mbps link (paper: ≈10 ms) and the
	// workstation generation time (paper: 6.2 s, "620× longer").
	TransmitTime   time.Duration
	GenerationTime time.Duration
	SlowdownFactor float64

	// TransmitWh at 0.038 Wh/MB (paper: ≈0.005 Wh) versus generation
	// energy (paper: ≈0.21 Wh; transmit is "2.5% of current
	// workstation generation").
	TransmitWh    float64
	GenerationWh  float64
	TransmitShare float64

	// LaptopGenerationWh is the end-device cost of the same image
	// (paper: 0.90 Wh).
	LaptopGenerationWh float64
}

// CompareEnergy runs the §6.4 comparison.
func CompareEnergy() (*EnergyComparison, error) {
	const largeImageBytes = 131072
	wt, err := sd3GenTime(device.ClassWorkstation, 1024, 1024, 15)
	if err != nil {
		return nil, err
	}
	lt, err := sd3GenTime(device.ClassLaptop, 1024, 1024, 15)
	if err != nil {
		return nil, err
	}
	c := &EnergyComparison{
		TransmitTime:   device.Laptop.TransmitTime(largeImageBytes),
		GenerationTime: wt,
		TransmitWh:     device.TransmitEnergyWh(largeImageBytes),
		GenerationWh:   device.Workstation.ImageGenEnergyWh(wt),
	}
	c.SlowdownFactor = float64(c.GenerationTime) / float64(c.TransmitTime)
	c.TransmitShare = c.TransmitWh / c.GenerationWh
	c.LaptopGenerationWh = device.Laptop.ImageGenEnergyWh(lt)
	return c, nil
}

func reportEnergy(w io.Writer, _ bool) (any, error) {
	c, err := CompareEnergy()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "paper: large image transmit ~10ms vs 6.2s generation (620x);\n")
	fmt.Fprintf(w, "       transmit ~0.005Wh = 2.5%% of workstation generation (0.21Wh)\n\n")
	fmt.Fprintf(w, "transmit (100Mbps):  %v, %.4f Wh\n", c.TransmitTime, c.TransmitWh)
	fmt.Fprintf(w, "workstation gen:     %.1fs, %.3f Wh\n", c.GenerationTime.Seconds(), c.GenerationWh)
	fmt.Fprintf(w, "generation slowdown: %.0fx\n", c.SlowdownFactor)
	fmt.Fprintf(w, "transmit share:      %.1f%%\n", 100*c.TransmitShare)
	fmt.Fprintf(w, "laptop gen energy:   %.2f Wh\n", c.LaptopGenerationWh)
	return c, nil
}

// CarbonResult quantifies §6.4's embodied-carbon argument.
type CarbonResult struct {
	// Per-terabyte figure (paper: 6–7 kg CO2e/TB).
	PerTBKg float64

	// A CDN storing 1 EB of media, replicated across 10 edge sites,
	// versus the same content as prompts at the Figure 2 compression
	// factor.
	MediaExabyteKg  float64
	PromptExabyteKg float64
	SavedKg         float64
}

// CarbonSavings computes the storage-carbon comparison at exabyte
// scale (paper: "even modest compression can save millions of
// kg CO2e").
func CarbonSavings(compressionFactor float64) *CarbonResult {
	const exabyte = int64(1e18)
	const replicas = 10
	media := device.EmbodiedCarbonKg(exabyte, replicas)
	prompt := device.EmbodiedCarbonKg(int64(float64(exabyte)/compressionFactor), replicas)
	return &CarbonResult{
		PerTBKg:         device.SSDEmbodiedKgCO2PerTB,
		MediaExabyteKg:  media,
		PromptExabyteKg: prompt,
		SavedKg:         media - prompt,
	}
}

// reportCarbon prints E10 at the media compression Figure 2 measures.
func reportCarbon(w io.Writer, _ bool) (any, error) {
	fig2, err := Fig2Wikimedia()
	if err != nil {
		return nil, err
	}
	c := CarbonSavings(fig2.CompressionFactor)
	fmt.Fprintf(w, "paper: 6-7 kgCO2e/TB SSD; exabyte-scale compression saves millions of kg\n\n")
	fmt.Fprintf(w, "per TB:                %.1f kgCO2e\n", c.PerTBKg)
	fmt.Fprintf(w, "1 EB media x10 sites:  %.2e kgCO2e\n", c.MediaExabyteKg)
	fmt.Fprintf(w, "as prompts (%.0fx):     %.2e kgCO2e\n", fig2.CompressionFactor, c.PromptExabyteKg)
	fmt.Fprintf(w, "saved:                 %.2e kgCO2e (millions: %v)\n", c.SavedKg, c.SavedKg > 1e6)
	return c, nil
}

// TrafficResult is §7's mobile-web projection.
type TrafficResult struct {
	BaselineEBPerMonth  float64
	CompressionFactor   float64
	ProjectedPBPerMonth float64
}

// ProjectTraffic applies a measured compression factor to the paper's
// 2–3 EB/month mobile browsing volume.
func ProjectTraffic(compressionFactor float64) *TrafficResult {
	return &TrafficResult{
		BaselineEBPerMonth:  device.MobileWebEBPerMonth,
		CompressionFactor:   compressionFactor,
		ProjectedPBPerMonth: device.ProjectTrafficPB(compressionFactor),
	}
}

// reportTraffic prints E11 at the media compression Figure 2 measures.
func reportTraffic(w io.Writer, _ bool) (any, error) {
	fig2, err := Fig2Wikimedia()
	if err != nil {
		return nil, err
	}
	t := ProjectTraffic(fig2.CompressionFactor)
	fmt.Fprintf(w, "paper: 2-3 EB/month mobile web -> tens of PB at ~two orders of magnitude\n\n")
	fmt.Fprintf(w, "baseline:   %.1f EB/month\n", t.BaselineEBPerMonth)
	fmt.Fprintf(w, "compression: %.0fx (measured, Figure 2 media ratio)\n", t.CompressionFactor)
	fmt.Fprintf(w, "projected:  %.1f PB/month\n", t.ProjectedPBPerMonth)
	return t, nil
}

package experiments

import (
	"fmt"
	"io"
)

// An Experiment is one entry of the evaluation: the key that selects
// it, the title its report is printed under, and the report, which
// runs it, prints its paper-vs-measured table and checks its bars.
type Experiment struct {
	Key, Title string
	report     func(w io.Writer, quick bool) error
}

// Experiments lists every experiment in the order sww-bench runs them.
var Experiments = []Experiment{
	{"matrix", "E2 §6.2 capability matrix", reportMatrix},
	{"fig2", "E3 Figure 2: Wikimedia landscape page", reportFig2},
	{"article", "E4 §6.2 text experiment: newspaper article", reportArticle},
	{"t1", "E5 Table 1: ELO & CLIP, time per step", reportTable1},
	{"steps", "E6a §6.3.1 inference-step sweep", reportSteps},
	{"sizes", "E6b §6.3.1 image-size sweep", reportSizes},
	{"text", "E7 §6.3.2 text-to-text models", reportText},
	{"t2", "E8 Table 2: compression, time & energy", reportTable2},
	{"energy", "E9 §6.4 transmit vs generate", reportEnergy},
	{"carbon", "E10 §6.4 embodied carbon", reportCarbon},
	{"traffic", "E11 §7 traffic projection", reportTraffic},
	{"cdn", "E12 §2.2 CDN modes", reportCDN},
	{"video", "E13 §3.2 video negotiation", reportVideo},
	{"storage", "§2.1 server storage", reportStorage},
	{"ablations", "design-choice ablations", reportAblations},
	{"h3", "E14 §3.1 HTTP/3 negotiation parity", reportH3},
	{"upscale", "E15 §2.2 content upscaling", reportUpscale},
	{"personalize", "E16 §2.3 personalization & echo chamber", reportPersonalize},
	{"placement", "E17 §7 cache-placement flexibility", reportPlacement},
	{"telemetry", "E22 operational telemetry cross-check", reportTelemetry},
	{"capacity", "E27 open-loop capacity model & knee", reportCapacity},
}

// Run writes e's header and report to w; quick trims the heavier
// sweeps. It returns an error if the experiment failed or, once its
// report is written, missed one of its acceptance bars.
func (e Experiment) Run(w io.Writer, quick bool) error {
	fmt.Fprintf(w, "\n=== %s ===\n", e.Title)
	return e.report(w, quick)
}

// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) plus the quantified claims of §2.2, §3.2
// and §7. Each experiment returns a structured result, and its report
// (beside it) prints that result as a paper-vs-measured table and
// checks the experiment's acceptance bars. Experiments lists the
// reports in the order cmd/sww-bench runs them; TestGoldenReports pins
// the bytes of every report that repeats.
//
// See DESIGN.md's per-experiment index (E1–E13) for the mapping from
// paper artifact to the functions here.
package experiments

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
	"sww/internal/metrics"
	"sww/internal/workload"
)

// evalPrompts is the fixed prompt set quality metrics average over.
var evalPrompts = []string{
	"A cartoon goldfish swimming in a bright blue bowl",
	"Icelandic landscape near a waterfall in july",
	"Swedish landscape with rolling green fields and red cabins",
	"Large cloud over mexican desert landscape at dusk",
	"Water reflection of clouds in a pond on a sand beach at sunrise",
	"Strawberry field in the german countryside on a clear day",
	"Panoramic view of a volcano in chile with snow fields",
	"Landscape with a rainbow over an old bridge and a river",
}

// Table1Row is one model row of Table 1.
type Table1Row struct {
	Model     string
	PaperELO  float64
	ELO       float64 // simulated-arena rating
	PaperCLIP float64
	CLIP      float64 // measured mean score
	// Time per step at the 224×224 evaluation size; zero when the
	// model cannot run on that device (DALLE-3 on the laptop).
	LaptopStep, WorkstationStep time.Duration
}

// Table1 reproduces Table 1: ELO and CLIP scores with per-step times
// on laptop and workstation, 15 inference steps, 224×224.
func Table1() ([]Table1Row, error) {
	// ELO: simulate the voting arena over the models' latent
	// strengths (plus the GPT-4o reference the paper cites as the
	// leaderboard top).
	latents := map[string]float64{}
	for _, m := range imagegen.Models() {
		latents[m.Name()] = m.EloLatent()
	}
	arena := metrics.SimulateArena(latents, 300, 1)

	var rows []Table1Row
	paperELO := map[string]float64{
		imagegen.SD21: 688, imagegen.SD3Medium: 895,
		imagegen.SD35Medium: 927, imagegen.DALLE3: 923,
	}
	paperCLIP := map[string]float64{
		imagegen.SD21: 0.19, imagegen.SD3Medium: 0.27,
		imagegen.SD35Medium: 0.27, imagegen.DALLE3: 0.32,
	}
	for _, m := range imagegen.Models() {
		row := Table1Row{
			Model:     m.Name(),
			PaperELO:  paperELO[m.Name()],
			ELO:       arena.Rating(m.Name()),
			PaperCLIP: paperCLIP[m.Name()],
		}
		class := device.ClassLaptop
		if m.ServerOnly() {
			class = device.ClassWorkstation
		}
		var sum float64
		for i, p := range evalPrompts {
			res, err := m.Generate(genai.ImageRequest{Prompt: p, Class: class, Seed: int64(i + 1)})
			if err != nil {
				return nil, err
			}
			sum += metrics.CLIPScore(p, res.Image)
		}
		row.CLIP = sum / float64(len(evalPrompts))
		if st, err := m.StepTime(device.ClassLaptop); err == nil {
			row.LaptopStep = st
		}
		if st, err := m.StepTime(device.ClassWorkstation); err == nil {
			row.WorkstationStep = st
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func reportTable1(w io.Writer, _ bool) error {
	rows, err := Table1()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %12s %14s\n",
		"model", "paper ELO", "ELO", "paper CLIP", "CLIP", "laptop t/st", "workstn t/st")
	for _, r := range rows {
		lap, wkst := "–", "–"
		if r.LaptopStep > 0 {
			lap = fmt.Sprintf("%.2fs", r.LaptopStep.Seconds())
		}
		if r.WorkstationStep > 0 {
			wkst = fmt.Sprintf("%.2fs", r.WorkstationStep.Seconds())
		}
		fmt.Fprintf(w, "%-14s %10.0f %10.0f %10.2f %10.3f %12s %14s\n",
			r.Model, r.PaperELO, r.ELO, r.PaperCLIP, r.CLIP, lap, wkst)
	}
	return nil
}

// StepSweepRow is one point of the §6.3.1 inference-step scaling
// experiment.
type StepSweepRow struct {
	Steps   int
	CLIP    float64
	GenTime time.Duration // laptop, SD 3 Medium, 224×224
}

// StepSweep reproduces §6.3.1's step scaling: from 10 to 60 steps,
// CLIP changes only minutely while time grows linearly.
func StepSweep() ([]StepSweepRow, error) {
	m, err := genai.ImageModelByName(imagegen.SD3Medium)
	if err != nil {
		return nil, err
	}
	var rows []StepSweepRow
	for _, steps := range []int{10, 15, 20, 30, 40, 50, 60} {
		var clip float64
		var simTime time.Duration
		for i, p := range evalPrompts {
			res, err := m.Generate(genai.ImageRequest{
				Prompt: p, Steps: steps, Class: device.ClassLaptop, Seed: int64(i + 1)})
			if err != nil {
				return nil, err
			}
			clip += metrics.CLIPScore(p, res.Image)
			simTime = res.SimTime
		}
		rows = append(rows, StepSweepRow{
			Steps:   steps,
			CLIP:    clip / float64(len(evalPrompts)),
			GenTime: simTime,
		})
	}
	return rows, nil
}

func reportSteps(w io.Writer, _ bool) error {
	rows, err := StepSweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper: CLIP ~flat from 10..60 steps, time linear in steps (laptop, SD3)\n")
	fmt.Fprintf(w, "%6s %8s %10s\n", "steps", "CLIP", "gen time")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %8.3f %9.1fs\n", r.Steps, r.CLIP, r.GenTime.Seconds())
	}
	return nil
}

// SizeSweepRow is one point of the §6.3.1 image-size scaling
// experiment.
type SizeSweepRow struct {
	Dim         int
	Laptop      time.Duration
	Workstation time.Duration
}

// SizeSweep reproduces §6.3.1's size scaling: on the workstation time
// grows roughly with pixels; the laptop hits the attention-splitting
// wall at 1024² (310 s).
func SizeSweep() ([]SizeSweepRow, error) {
	var rows []SizeSweepRow
	for _, dim := range []int{224, 256, 384, 512, 768, 1024} {
		lt, err := sd3GenTime(device.ClassLaptop, dim, dim, 15)
		if err != nil {
			return nil, err
		}
		wt, err := sd3GenTime(device.ClassWorkstation, dim, dim, 15)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SizeSweepRow{Dim: dim, Laptop: lt, Workstation: wt})
	}
	return rows, nil
}

func reportSizes(w io.Writer, _ bool) error {
	rows, err := SizeSweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper anchors (SD3, 15 steps): laptop 7/19/310s, workstation 1.0/1.7/6.2s\n")
	fmt.Fprintf(w, "%10s %12s %14s\n", "size", "laptop", "workstation")
	for _, r := range rows {
		fmt.Fprintf(w, "%5dx%-4d %11.1fs %13.2fs\n", r.Dim, r.Dim, r.Laptop.Seconds(), r.Workstation.Seconds())
	}
	return nil
}

// TextModelRow summarizes one text model of §6.3.2 across word
// targets.
type TextModelRow struct {
	Model      string
	PaperSBERT float64
	SBERT      float64 // mean across targets and seeds

	OvershootMean float64
	OvershootP25  float64
	OvershootP75  float64

	// Times per word target on each device.
	Times map[int]struct{ Laptop, Workstation time.Duration }

	// SpeedupWorkstation is laptop/workstation mean ratio ("only
	// 2.5×").
	SpeedupWorkstation float64
}

var textWordTargets = []int{50, 100, 150, 250}

// Text2Text reproduces the §6.3.2 evaluation: SBERT scores 0.82–0.91,
// overshoot mean ≈1.3% with quartiles beyond ±10%, times with weak,
// non-monotonic length dependence and a 2.5× workstation benefit.
func Text2Text() ([]TextModelRow, error) {
	bullets := []string{
		"hiking route through the alpine meadows",
		"trail starts at the lake parking area",
		"steep climb with panoramic summit views",
		"bring water and sun protection",
		"best season june through september",
	}
	ref := ""
	for _, b := range bullets {
		ref += b + ". "
	}
	var rows []TextModelRow
	for _, m := range textgen.Models() {
		row := TextModelRow{
			Model:      m.Name(),
			PaperSBERT: m.SBERTTarget(),
			Times:      map[int]struct{ Laptop, Workstation time.Duration }{},
		}
		var sberts, overshoots []float64
		var ratios []float64
		for _, words := range textWordTargets {
			for seed := int64(1); seed <= 8; seed++ {
				res, err := m.Expand(genai.TextRequest{
					Bullets: bullets, TargetWords: words,
					Class: device.ClassWorkstation, Seed: seed})
				if err != nil {
					return nil, err
				}
				sberts = append(sberts, metrics.SBERTScore(ref, res.Text))
				overshoots = append(overshoots, metrics.Overshoot(res.Words, words))
			}
			lt, err := m.GenTime(device.ClassLaptop, words)
			if err != nil {
				return nil, err
			}
			wt, err := m.GenTime(device.ClassWorkstation, words)
			if err != nil {
				return nil, err
			}
			row.Times[words] = struct{ Laptop, Workstation time.Duration }{lt, wt}
			ratios = append(ratios, lt.Seconds()/wt.Seconds())
		}
		row.SBERT = metrics.Mean(sberts)
		row.OvershootMean = metrics.Mean(overshoots)
		row.OvershootP25 = metrics.Percentile(overshoots, 25)
		row.OvershootP75 = metrics.Percentile(overshoots, 75)
		row.SpeedupWorkstation = metrics.Mean(ratios)
		rows = append(rows, row)
	}
	return rows, nil
}

func reportText(w io.Writer, _ bool) error {
	rows, err := Text2Text()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper: SBERT 0.82-0.91; overshoot mean ~1.3%%, quartiles often >10%%, max 20%%;\n")
	fmt.Fprintf(w, "       times 6.98-14.33s (workstation) / 16.06-34.04s (laptop); benefit only 2.5x\n")
	fmt.Fprintf(w, "%-18s %11s %7s %9s %9s %9s %8s\n",
		"model", "paper SBERT", "SBERT", "ovsh mean", "p25", "p75", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %11.2f %7.3f %8.1f%% %8.1f%% %8.1f%% %7.2fx\n",
			r.Model, r.PaperSBERT, r.SBERT,
			100*r.OvershootMean, 100*r.OvershootP25, 100*r.OvershootP75,
			r.SpeedupWorkstation)
	}
	fmt.Fprintf(w, "\n%-18s", "gen time (wkst/laptop)")
	for _, words := range textWordTargets {
		fmt.Fprintf(w, " %12dw", words)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s", r.Model)
		for _, words := range textWordTargets {
			t := r.Times[words]
			fmt.Fprintf(w, " %5.1f/%-6.1fs", t.Workstation.Seconds(), t.Laptop.Seconds())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table2Row is one media row of Table 2.
type Table2Row struct {
	Label         string
	SizeBytes     int
	MetadataBytes int
	Ratio         float64

	LaptopGen        time.Duration
	LaptopEnergyWh   float64
	WorkstationGen   time.Duration
	WorkstationWhGen float64
}

// Table2 reproduces Table 2: per-item compression, generation time
// and energy on both devices, using SD 3 Medium and DeepSeek-R1 8B.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, item := range workload.Table2Items() {
		row := Table2Row{
			Label:         item.Label,
			SizeBytes:     item.OriginalBytes,
			MetadataBytes: item.Content.ContentSize(),
		}
		row.Ratio = float64(row.SizeBytes) / float64(row.MetadataBytes)
		for _, class := range []device.Class{device.ClassLaptop, device.ClassWorkstation} {
			var gen time.Duration
			var energy float64
			switch item.Content.Type {
			case core.ContentImage:
				m, err := genai.ImageModelByName(imagegen.SD3Medium)
				if err != nil {
					return nil, err
				}
				res, err := m.Generate(genai.ImageRequest{
					Prompt: item.Content.Meta.Prompt,
					Width:  item.Content.Meta.Width,
					Height: item.Content.Meta.Height,
					Class:  class,
					Seed:   1,
				})
				if err != nil {
					return nil, err
				}
				gen = res.SimTime
				energy = profileFor(class).ImageGenEnergyWh(gen)
			case core.ContentText:
				m, err := genai.TextModelByName(textgen.DeepSeek8)
				if err != nil {
					return nil, err
				}
				res, err := m.Expand(genai.TextRequest{
					Bullets:     item.Content.Meta.Bullets,
					TargetWords: item.Content.Meta.Words,
					Class:       class,
					Seed:        1,
				})
				if err != nil {
					return nil, err
				}
				gen = res.SimTime
				energy = profileFor(class).TextGenEnergyWh(gen)
			}
			if class == device.ClassLaptop {
				row.LaptopGen, row.LaptopEnergyWh = gen, energy
			} else {
				row.WorkstationGen, row.WorkstationWhGen = gen, energy
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func reportTable2(w io.Writer, _ bool) error {
	rows, err := Table2()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper rows: 19.14x/7s/0.02Wh/1.0s/0.04Wh; 76.56x/19s/0.05Wh/1.7s/0.06Wh;\n")
	fmt.Fprintf(w, "            306.24x/310s/0.90Wh/6.2s/0.21Wh; 1.93x/32s/0.01Wh/13.0s/0.51Wh\n")
	fmt.Fprintf(w, "%-16s %9s %9s %8s %10s %10s %10s %10s\n",
		"media", "size[B]", "meta[B]", "ratio", "lap gen", "lap Wh", "wkst gen", "wkst Wh")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9d %9d %8.2f %9.1fs %10.3f %9.1fs %10.3f\n",
			r.Label, r.SizeBytes, r.MetadataBytes, r.Ratio,
			r.LaptopGen.Seconds(), r.LaptopEnergyWh,
			r.WorkstationGen.Seconds(), r.WorkstationWhGen)
	}
	return nil
}

func profileFor(class device.Class) device.Profile {
	switch class {
	case device.ClassWorkstation:
		return device.Workstation
	case device.ClassMobile:
		return device.Mobile
	default:
		return device.Laptop
	}
}

// Fig2Result is the Figure 2 / §6.2 page experiment.
type Fig2Result struct {
	Images int

	// OriginalBytes is the traditional transfer (paper: 1400 kB).
	OriginalBytes int
	// MetadataBytes is the prompt transfer (paper: 8.92 kB).
	MetadataBytes int
	// CompressionFactor (paper: 157×) and WorstCaseFactor (paper:
	// 68× at 428 B/asset).
	CompressionFactor float64
	WorstCaseFactor   float64

	// Wire measurements from the real client/server exchange.
	GenerativeWireBytes  int
	TraditionalWireBytes int
	WireFactor           float64

	// Laptop client generation (paper: ≈310 s, 6.32 s/image) and
	// workstation/server generation (paper: ≈49 s, ≈1 s/image).
	LaptopGen       time.Duration
	LaptopPerImage  time.Duration
	ServerGen       time.Duration
	ServerPerImage  time.Duration
	MeanCLIP        float64
	LaptopGenWh     float64
	TransmitSavedWh float64
}

// Fig2Wikimedia runs the Figure 2 experiment end to end: the
// Wikimedia gallery served over real HTTP/2 to a generative laptop
// client and to a traditional client, plus server-side generation.
func Fig2Wikimedia() (*Fig2Result, error) {
	page := workload.WikimediaLandscape()
	res := &Fig2Result{
		Images:            workload.WikimediaImageCount,
		OriginalBytes:     page.OriginalMediaBytes(),
		MetadataBytes:     page.MetadataContentBytes(),
		CompressionFactor: page.MediaCompressionRatio(),
	}
	res.WorstCaseFactor = float64(res.OriginalBytes) / float64(workload.WikimediaImageCount*428)

	// Generative fetch on the laptop.
	gen, err := fetchAs(page, true)
	if err != nil {
		return nil, err
	}
	res.GenerativeWireBytes = gen.WireBytes
	res.LaptopGen = gen.Report.SimGenTime
	res.LaptopPerImage = gen.Report.SimGenTime / time.Duration(res.Images)
	res.LaptopGenWh = gen.Report.EnergyWh

	var clip float64
	for _, item := range gen.Report.Items {
		clip += metrics.CLIPScoreFromCosine(item.Alignment)
	}
	res.MeanCLIP = clip / float64(len(gen.Report.Items))

	// Traditional fetch.
	trad, err := fetchAs(page, false)
	if err != nil {
		return nil, err
	}
	res.TraditionalWireBytes = trad.WireBytes
	res.WireFactor = float64(trad.WireBytes) / float64(gen.WireBytes)
	res.TransmitSavedWh = device.TransmitEnergyWh(int64(trad.WireBytes - gen.WireBytes))

	// Server-side generation for a naive client (§6.2 fallback): the
	// workstation pipeline generates all 49 images.
	srvPage := workload.WikimediaLandscape()
	srvPage.Originals = nil
	srv, client, err := pipeClient(srvPage, nil, false)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if _, err := client.Fetch(workload.WikimediaPath); err != nil {
		return nil, err
	}
	if rep := srv.ServerGenReport(workload.WikimediaPath); rep != nil {
		res.ServerGen = rep.SimGenTime
		res.ServerPerImage = rep.SimGenTime / time.Duration(res.Images)
	}
	return res, nil
}

func reportFig2(w io.Writer, _ bool) error {
	r, err := Fig2Wikimedia()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper: 49 images, 1400kB -> 8.92kB (157x, worst case 68x);\n")
	fmt.Fprintf(w, "       laptop 310s (6.32s/image), workstation ~49s (~1s/image)\n\n")
	fmt.Fprintf(w, "images:                 %d\n", r.Images)
	fmt.Fprintf(w, "original media:         %d B\n", r.OriginalBytes)
	fmt.Fprintf(w, "prompt metadata:        %d B\n", r.MetadataBytes)
	fmt.Fprintf(w, "compression factor:     %.1fx (worst case %.1fx)\n", r.CompressionFactor, r.WorstCaseFactor)
	fmt.Fprintf(w, "wire bytes generative:  %d B\n", r.GenerativeWireBytes)
	fmt.Fprintf(w, "wire bytes traditional: %d B (page-level factor %.1fx)\n", r.TraditionalWireBytes, r.WireFactor)
	fmt.Fprintf(w, "laptop generation:      %.0fs (%.2fs/image), %.2f Wh\n",
		r.LaptopGen.Seconds(), r.LaptopPerImage.Seconds(), r.LaptopGenWh)
	fmt.Fprintf(w, "server generation:      %.0fs (%.2fs/image)\n",
		r.ServerGen.Seconds(), r.ServerPerImage.Seconds())
	fmt.Fprintf(w, "mean CLIP of page:      %.3f\n", r.MeanCLIP)
	fmt.Fprintf(w, "transmit energy saved:  %.4f Wh\n", r.TransmitSavedWh)
	return nil
}

// FetchWikimediaGeneratively serves the Figure 2 page to a generative
// laptop client over an in-process connection and returns the full
// fetch result, including the generated assets (used by examples).
func FetchWikimediaGeneratively() (*core.FetchResult, error) {
	return fetchAs(workload.WikimediaLandscape(), true)
}

// fetchAs serves page on a fresh in-process connection and fetches it
// with a generative or traditional client.
func fetchAs(page *core.Page, generative bool) (*core.FetchResult, error) {
	_, client, err := pipeClient(page, nil, generative)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	return client.Fetch(page.Path)
}

// pipeClient boots an SD3/DeepSeek server holding page, advertising
// ability when it is not nil, and connects a laptop client to it over
// a net.Pipe: a generative client when generative is set.
func pipeClient(page *core.Page, ability *http2.GenAbility, generative bool) (*core.Server, *core.Client, error) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, nil, err
	}
	if ability != nil {
		srv.SetAbility(*ability)
	}
	srv.AddPage(page)
	var proc *core.PageProcessor
	if generative {
		if proc, err = core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8); err != nil {
			return nil, nil, err
		}
	}
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	client, err := core.NewClient(cEnd, device.Laptop, proc)
	return srv, client, err
}

// TextArticleResult is the §6.2 text experiment.
type TextArticleResult struct {
	OriginalBytes int
	PromptBytes   int
	Compression   float64 // paper: 3.1×

	LaptopGen      time.Duration // paper: 41.9 s
	WorkstationGen time.Duration // paper: >10 s
	SBERT          float64
}

// TextArticle runs the newspaper-article experiment end to end.
func TextArticle() (*TextArticleResult, error) {
	page := workload.NewsArticle()
	res := &TextArticleResult{
		OriginalBytes: workload.ArticleBytes,
		PromptBytes:   page.MetadataContentBytes(),
	}
	res.Compression = float64(res.OriginalBytes) / float64(res.PromptBytes)

	gen, err := fetchAs(page, true)
	if err != nil {
		return nil, err
	}
	res.LaptopGen = gen.Report.SimGenTime

	ph := page.Placeholders()[0]
	m, err := genai.TextModelByName(textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	wt, err := m.(genai.ExpandTimer).GenTime(device.ClassWorkstation, ph.Content.Meta.Words)
	if err != nil {
		return nil, err
	}
	res.WorkstationGen = wt

	orig := string(page.Originals[0].Data)
	expanded, err := m.Expand(genai.TextRequest{
		Bullets: ph.Content.Meta.Bullets, TargetWords: ph.Content.Meta.Words,
		Class: device.ClassLaptop, Seed: 1})
	if err != nil {
		return nil, err
	}
	res.SBERT = metrics.SBERTScore(orig, expanded.Text)
	return res, nil
}

func reportArticle(w io.Writer, _ bool) error {
	r, err := TextArticle()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper: 2400B -> 778B (3.1x); laptop 41.9s, workstation >10s\n\n")
	fmt.Fprintf(w, "original:        %d B\n", r.OriginalBytes)
	fmt.Fprintf(w, "prompt form:     %d B\n", r.PromptBytes)
	fmt.Fprintf(w, "compression:     %.2fx\n", r.Compression)
	fmt.Fprintf(w, "laptop gen:      %.1fs\n", r.LaptopGen.Seconds())
	fmt.Fprintf(w, "workstation gen: %.1fs\n", r.WorkstationGen.Seconds())
	fmt.Fprintf(w, "SBERT vs source: %.3f\n", r.SBERT)
	return nil
}

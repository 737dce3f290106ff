package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/telemetry"
	"sww/internal/workload"
	"sww/internal/workload/loadgen"
)

// CapacityRow is one offered-load point of the E27 capacity curve.
// Unlike a metronome of uniformly cold traditional requests, the load
// here is the open-loop engine's realistic mix: Zipf page
// popularity, heavy-tailed session arrivals, and the §5.1
// capable/incapable device split — so the row measures how much of
// the offered stream the stack actually absorbs at this rate.
type CapacityRow struct {
	// Multiplier is offered load over the model's predicted knee.
	Multiplier float64
	// OfferedRPS is the target offered rate; RealizedRPS is what the
	// seeded schedule actually contains (heavy-tailed gaps wander).
	OfferedRPS  float64
	RealizedRPS float64

	Requests int
	OK       int
	Shed     int // 503 + Retry-After observed by clients
	Errors   int // anything else (must stay 0)

	// GoodputRPS is completed pages per second of wall time. GoodputX
	// is that normalized by the calibrated generation capacity
	// (machine-comparable scale). GoodputFrac is OK/Requests — the
	// admitted fraction of the offered stream, which is independent of
	// both the machine and the seeded schedule's realized rate, so it
	// is what the sweep's acceptance compares against the recorded
	// curve (capacityGoodput).
	GoodputRPS  float64
	GoodputX    float64
	GoodputFrac float64
	ShedRate    float64

	// P50/P95/P99 are schedule-based latency percentiles over
	// successful requests: measured from each request's *intended*
	// send instant (telemetry.ScheduleClock), so client-side queueing
	// is included and coordinated omission cannot flatter the tail.
	P50, P95, P99 time.Duration

	// Stats is the server's overload counter snapshot for the round.
	Stats overload.Stats
}

// The calibrated generation backend: overloadGenWorkers workers each
// occupied overloadGenHold per page, so capacity is
// overloadGenWorkers/overloadGenHold pages per second, enforced twice
// (pool occupancy via GenWallScale and token-bucket admission at the
// same rate).
const (
	overloadGenWorkers = 2
	overloadGenHold    = 20 * time.Millisecond
)

// CapacityResult is the E27 artifact: the calibrated capacity model
// plus the measured curve and its knee.
type CapacityResult struct {
	// GenWorkers / GenHold / GenCapacityRPS describe the server's
	// generation backend: workers × 1/hold pages of server-side
	// generation per second (hold includes the real pipeline wall
	// time).
	GenWorkers     int
	GenHold        time.Duration
	GenCapacityRPS float64

	// CorpusPages is the Zipf corpus size; CacheTopPages is how many
	// head pages the generated-content LRU is sized to hold
	// (CacheBytes, from a measured per-entry size).
	CorpusPages   int
	CacheTopPages int
	CacheBytes    int64

	// The analytic capacity model: generation demand =
	// offered × IncapableShare × MissShare, so the predicted knee is
	// GenCapacityRPS / (IncapableShare × MissShare).
	IncapableShare   float64
	MissShare        float64
	PredictedKneeRPS float64

	// Rows is the measured curve (first run).
	Rows []CapacityRow

	// KneeRPS is the interpolated offered rate where the measured
	// shed rate first crosses 5%; KneeRPS2 is the same knee from an
	// identical-seed second sweep (schedules are byte-identical, so
	// the delta is pure measurement noise). A KneeRPS2 of zero means
	// the second sweep never crossed 5%; the first must.
	KneeRPS, KneeRPS2 float64

	// GoodputFrac is the curve's request-weighted goodput_frac, and
	// GoodputFloor the least it may be (see capacityGoodput).
	GoodputFrac, GoodputFloor float64

	// DiurnalPeakShed / DiurnalTroughShed are the shed rates inside
	// the peak (≈1.8×) and trough (≈0.2×) windows of a diurnal-ramp
	// leg driven at the predicted knee: the same daily average rate
	// sheds at the peak and coasts at the trough. Negative when the
	// leg was skipped (quick mode).
	DiurnalPeakShed, DiurnalTroughShed float64

	Quick bool
}

// capacityMultipliers are the offered loads of the full sweep, in
// units of the predicted knee; the quick sweep keeps a subset, so each
// of its rows has a recorded counterpart in capacityBaseline.
var (
	capacityMultipliers      = []float64{0.5, 0.8, 1.2, 1.7, 2.4}
	capacityQuickMultipliers = []float64{0.5, 1.2, 2.4}
)

// capacityBaseline is the full-mode curve of BENCH_PR10.json: each
// multiplier's goodput_frac and request count.
var capacityBaseline = []struct {
	mult, goodputFrac float64
	requests          int
}{
	{0.5, 1, 300},
	{0.8, 0.9939024390243902, 328},
	{1.2, 0.9822834645669292, 508},
	{1.7, 0.8519900497512438, 804},
	{2.4, 0.8688888888888889, 900},
}

// capacityGoodputMin is the share of the baseline's goodput_frac a
// sweep must keep.
const capacityGoodputMin = 0.9

// capacityGoodput returns the request-weighted goodput_frac of the
// rows at a baseline multiplier and their floor: capacityGoodputMin of
// the baseline's request-weighted goodput_frac at the same
// multipliers. It fails when the rows fall below the floor. The
// fraction is a ratio of counts, so it does not depend on the
// machine's speed, and weighting by requests lets a small row shed a
// few extra requests without failing the curve.
func capacityGoodput(rows []CapacityRow) (frac, floor float64, err error) {
	var gotSum, gotW, wantSum, wantW float64
	for _, r := range rows {
		for _, b := range capacityBaseline {
			if b.mult == r.Multiplier {
				gotSum += r.GoodputFrac * float64(r.Requests)
				gotW += float64(r.Requests)
				wantSum += b.goodputFrac * float64(b.requests)
				wantW += float64(b.requests)
			}
		}
	}
	if gotW == 0 {
		return 0, 0, errors.New("capacity sweep: no row at a recorded multiplier")
	}
	frac, floor = gotSum/gotW, wantSum/wantW*capacityGoodputMin
	if frac < floor {
		return frac, floor, fmt.Errorf("capacity goodput_frac %.3f below its floor %.3f (%.0f%% of the recorded curve's)",
			frac, floor, 100*capacityGoodputMin)
	}
	return frac, floor, nil
}

// KneeShedThreshold defines the capacity knee: the first offered load
// whose shed rate crosses this fraction.
const KneeShedThreshold = 0.05

// capacitySeed fixes every schedule of the sweep; round i uses
// capacitySeed+i in both runs, which is what makes the two knees
// comparable.
const capacitySeed int64 = 27_000

// CapacitySweep runs E27: calibrate a capacity model for a
// fixed-size generative server, then drive it open-loop at multiples
// of the model's predicted knee and measure the real curve — admitted
// goodput, shed rate, and schedule-based p50/p95/p99 per offered
// rate. The sweep runs twice with identical seeds to bound the knee's
// measurement noise, then (full mode) replays a diurnal day at the
// knee rate to show the peak shedding while the trough coasts.
func CapacitySweep(quick bool) (*CapacityResult, error) {
	multipliers := capacityMultipliers
	roundDur := 1200 * time.Millisecond
	if quick {
		multipliers = capacityQuickMultipliers
		roundDur = 600 * time.Millisecond
	}
	const (
		corpusPages   = 160
		cacheTopPages = 6
	)

	// Calibration: one probe generation pins the wall-time scale so a
	// generation occupies a worker for overloadGenHold, and the real
	// pipeline time (a LoadPage is ~1.5 ms of CPU, 7% of the hold)
	// joins the service time, or even a half-loaded round would queue
	// and shed.
	probe, err := core.NewPageProcessor(device.Workstation, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	_, report, err := probe.Process(workload.LoadPage(0).Doc.Clone())
	procWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if report.SimGenTime <= 0 {
		return nil, errors.New("experiments: load page has zero modelled generation time")
	}
	wallScale := float64(overloadGenHold) / float64(report.SimGenTime)
	serviceTime := overloadGenHold + procWall
	genCapacity := float64(overloadGenWorkers) / serviceTime.Seconds()

	// Size the generated-content cache to the corpus head: measure one
	// real cache entry, then cap the LRU at cacheTopPages entries
	// (plus slack for per-page prompt size variance).
	entryBytes, err := capacityCacheEntryBytes(wallScale)
	if err != nil {
		return nil, err
	}
	cacheBytes := entryBytes * int64(cacheTopPages) * 5 / 4

	mix := device.DefaultMix()
	incapShare := 1 - mix.CapableShare()
	missShare := loadgen.ZipfTailShare(1.1, 1, corpusPages, cacheTopPages)
	predictedKnee := genCapacity / (incapShare * missShare)

	res := &CapacityResult{
		GenWorkers:        overloadGenWorkers,
		GenHold:           overloadGenHold,
		GenCapacityRPS:    genCapacity,
		CorpusPages:       corpusPages,
		CacheTopPages:     cacheTopPages,
		CacheBytes:        cacheBytes,
		IncapableShare:    incapShare,
		MissShare:         missShare,
		PredictedKneeRPS:  predictedKnee,
		DiurnalPeakShed:   -1,
		DiurnalTroughShed: -1,
		Quick:             quick,
	}

	run := func() ([]CapacityRow, error) {
		var rows []CapacityRow
		for i, mult := range multipliers {
			cfg := loadgen.Config{
				Seed:     capacitySeed + int64(i),
				Pages:    corpusPages,
				Duration: roundDur,
				RPS:      predictedKnee * mult,
				Mix:      mix,
			}
			row, err := capacityRound(cfg, capacityServerConfig(genCapacity, wallScale, cacheBytes), cacheTopPages, genCapacity, nil)
			if err != nil {
				return nil, fmt.Errorf("capacity round %.1fx: %w", mult, err)
			}
			row.Multiplier = mult
			row.OfferedRPS = cfg.RPS
			rows = append(rows, *row)
		}
		return rows, nil
	}

	rows1, err := run()
	if err != nil {
		return nil, err
	}
	rows2, err := run()
	if err != nil {
		return nil, err
	}
	res.Rows = rows1
	res.KneeRPS = capacityKnee(rows1)
	res.KneeRPS2 = capacityKnee(rows2)

	// Acceptance, asserted here so both the CLI and tests inherit it:
	// the sweep steps offered load strictly upward, the server never
	// hard-errors (shed is the only legal refusal), the knee is
	// reproducible — two identical-seed runs must land within ±10% —
	// the analytic model predicts it within 2×, and the curve admits
	// as much of its offered stream as the recorded one did.
	for i, r := range res.Rows {
		if i > 0 && r.OfferedRPS <= res.Rows[i-1].OfferedRPS {
			return nil, fmt.Errorf("capacity sweep not monotone: offered %.0f/s at %.1fx after %.0f/s",
				r.OfferedRPS, r.Multiplier, res.Rows[i-1].OfferedRPS)
		}
		if r.Errors > 0 {
			return nil, fmt.Errorf("capacity sweep: %d hard errors at %.1fx (shed is the only legal refusal)",
				r.Errors, r.Multiplier)
		}
	}
	if res.KneeRPS > 0 && res.KneeRPS2 > 0 {
		if d := (res.KneeRPS2 - res.KneeRPS) / res.KneeRPS; d > 0.10 || d < -0.10 {
			return nil, fmt.Errorf("capacity knee not stable: %.0f/s vs %.0f/s (%.1f%%) across identical-seed runs",
				res.KneeRPS, res.KneeRPS2, d*100)
		}
	}
	if res.KneeRPS <= 0 {
		return nil, fmt.Errorf("capacity knee not reached by %.1fx of the predicted %.0f/s, so the model is not within 2×",
			multipliers[len(multipliers)-1], res.PredictedKneeRPS)
	}
	if r := res.KneeRPS / res.PredictedKneeRPS; r > 2 || r < 0.5 {
		return nil, fmt.Errorf("capacity model off by more than 2×: predicted knee %.0f/s, measured %.0f/s",
			res.PredictedKneeRPS, res.KneeRPS)
	}
	if res.GoodputFrac, res.GoodputFloor, err = capacityGoodput(res.Rows); err != nil {
		return nil, err
	}

	if !quick {
		// Diurnal leg: one miniature day at the knee's average rate.
		// Arrivals concentrate at the midday peak, so that window
		// sheds while the trough sails under capacity.
		target := res.KneeRPS
		if target <= 0 {
			target = predictedKnee
		}
		cfg := loadgen.Config{
			Seed:     capacitySeed + 900,
			Pages:    corpusPages,
			Duration: 2 * time.Second,
			RPS:      target,
			Ramp:     loadgen.RampDiurnal,
			Mix:      mix,
		}
		windows := &diurnalWindows{total: cfg.Duration}
		if _, err := capacityRound(cfg, capacityServerConfig(genCapacity, wallScale, cacheBytes), cacheTopPages, genCapacity, windows); err != nil {
			return nil, fmt.Errorf("capacity diurnal leg: %w", err)
		}
		res.DiurnalPeakShed = windows.peakShedRate()
		res.DiurnalTroughShed = windows.troughShedRate()
	}
	return res, nil
}

func capacityServerConfig(genCapacity, wallScale float64, cacheBytes int64) overload.Config {
	return overload.Config{
		MaxGenWorkers: overloadGenWorkers,
		QueueDeadline: 4 * overloadGenHold,
		AdmitRPS:      genCapacity,
		AdmitBurst:    4 * overloadGenWorkers,
		CacheBytes:    cacheBytes,
		GenWallScale:  wallScale,
	}
}

// capacityCacheEntryBytes generates one corpus page traditionally and
// reports its cache entry size, so CacheBytes can be expressed in
// pages.
func capacityCacheEntryBytes(wallScale float64) (int64, error) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return 0, err
	}
	srv.SetOverload(overload.Config{MaxGenWorkers: 1, GenWallScale: wallScale})
	srv.AddPage(workload.LoadPage(0))
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	cl, err := core.NewClient(cEnd, device.Laptop, nil)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.FetchRaw(ctx, workload.LoadPagePath(0)); err != nil {
		return 0, fmt.Errorf("probing cache entry size: %w", err)
	}
	b := srv.Overload().Cache().Bytes()
	if b <= 0 {
		return 0, errors.New("experiments: traditional serve left no cache entry")
	}
	return b, nil
}

// diurnalWindows classifies per-request outcomes by schedule position
// for the diurnal leg.
type diurnalWindows struct {
	total time.Duration
	mu    sync.Mutex

	peakReq, peakShed     int
	troughReq, troughShed int
}

func (w *diurnalWindows) record(at time.Duration, shed bool) {
	x := float64(at) / float64(w.total)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case x >= 0.35 && x < 0.65: // midday peak, ramp ≈ 1.4–1.8×
		w.peakReq++
		if shed {
			w.peakShed++
		}
	case x < 0.2 || x >= 0.8: // night trough, ramp ≈ 0.2–0.6×
		w.troughReq++
		if shed {
			w.troughShed++
		}
	}
}

func (w *diurnalWindows) peakShedRate() float64 {
	if w.peakReq == 0 {
		return 0
	}
	return float64(w.peakShed) / float64(w.peakReq)
}

func (w *diurnalWindows) troughShedRate() float64 {
	if w.troughReq == 0 {
		return 0
	}
	return float64(w.troughShed) / float64(w.troughReq)
}

// capacityRound drives one open-loop schedule against a fresh server
// and measures the row. Every request fires at its intended instant
// regardless of earlier responses, and latency is recorded from that
// instant into a telemetry histogram.
func capacityRound(cfg loadgen.Config, ocfg overload.Config, warmPages int, genCapacity float64, windows *diurnalWindows) (*CapacityRow, error) {
	sched := loadgen.Schedule(cfg)
	if len(sched) == 0 {
		return nil, errors.New("experiments: empty load schedule")
	}

	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	srv.SetOverload(ocfg)
	for i := 0; i < cfg.Pages; i++ {
		srv.AddPage(workload.LoadPage(i))
	}

	// Two connection pools: capable clients advertise generation (the
	// server answers with the cheap prompt page), incapable ones
	// don't (the server must render — cache hit, admitted generation,
	// or shed). Neither runs a client-side pipeline: FetchRaw keeps
	// the load driver out of the measurement.
	const poolSize = 8
	newPool := func(ability http2.GenAbility) ([]*core.Client, error) {
		pool := make([]*core.Client, poolSize)
		for i := range pool {
			cEnd, sEnd := net.Pipe()
			srv.StartConn(sEnd)
			cl, err := core.NewClientWithAbility(cEnd, device.Laptop, nil, ability)
			if err != nil {
				return nil, err
			}
			pool[i] = cl
		}
		return pool, nil
	}
	capable, err := newPool(http2.GenFull | http2.GenUpscaleOnly)
	if err != nil {
		return nil, err
	}
	incapable, err := newPool(http2.GenNone)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, cl := range capable {
			cl.Close()
		}
		for _, cl := range incapable {
			cl.Close()
		}
	}
	defer closeAll()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm the cache's nominal working set (the corpus head) so each
	// round measures the steady state, not the cold-start transient.
	for i := 0; i < warmPages; i++ {
		if _, err := incapable[i%poolSize].FetchRaw(ctx, workload.LoadPagePath(i)); err != nil {
			var busy *core.ServerBusyError
			if !errors.As(err, &busy) {
				return nil, fmt.Errorf("warming page %d: %w", i, err)
			}
			time.Sleep(overloadGenHold)
			if _, err := incapable[i%poolSize].FetchRaw(ctx, workload.LoadPagePath(i)); err != nil {
				return nil, fmt.Errorf("warming page %d (retry): %w", i, err)
			}
		}
	}

	row := &CapacityRow{Requests: len(sched)}
	hist := telemetry.NewHistogram(nil)
	var mu sync.Mutex
	var wg sync.WaitGroup

	// Anchor the schedule slightly in the future so early senders
	// aren't late before they start.
	clock := telemetry.StartSchedule(time.Now().Add(30 * time.Millisecond))
	for _, r := range sched {
		wg.Add(1)
		go func(r loadgen.Request) {
			defer wg.Done()
			if d := time.Until(clock.Intended(r.At)); d > 0 {
				time.Sleep(d)
			}
			pool := incapable
			if r.Capable {
				pool = capable
			}
			raw, err := pool[r.Session%poolSize].FetchRaw(ctx, workload.LoadPagePath(r.Page))
			lat := clock.LatencySince(r.At)
			var busy *core.ServerBusyError
			shed := errors.As(err, &busy)
			if windows != nil {
				windows.record(r.At, shed)
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case shed:
				row.Shed++
			case err != nil || raw.Status != 200:
				row.Errors++
			default:
				row.OK++
				hist.Observe(lat)
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(clock.Start())

	span := loadgen.Span(sched, cfg.Duration)
	row.RealizedRPS = float64(row.Requests) / span.Seconds()
	row.GoodputRPS = float64(row.OK) / elapsed.Seconds()
	row.GoodputX = row.GoodputRPS / genCapacity
	row.GoodputFrac = float64(row.OK) / float64(row.Requests)
	row.ShedRate = float64(row.Shed) / float64(row.Requests)
	snap := hist.Snapshot()
	row.P50, row.P95, row.P99 = snap.P50, snap.P95, snap.P99
	row.Stats = srv.OverloadStats()
	return row, nil
}

// capacityKnee interpolates the offered rate at which the shed rate
// first crosses KneeShedThreshold. Rows below the crossing anchor the
// interpolation on their realized offered rates, which are seeded and
// thus identical across same-seed runs. Zero means the sweep never
// crossed.
func capacityKnee(rows []CapacityRow) float64 {
	for i, r := range rows {
		if r.ShedRate < KneeShedThreshold {
			continue
		}
		if i == 0 {
			return r.RealizedRPS
		}
		prev := rows[i-1]
		dy := r.ShedRate - prev.ShedRate
		if dy <= 0 {
			return r.RealizedRPS
		}
		frac := (KneeShedThreshold - prev.ShedRate) / dy
		return prev.RealizedRPS + frac*(r.RealizedRPS-prev.RealizedRPS)
	}
	return 0
}

// reportCapacity prints E27: the calibrated capacity model, the
// measured open-loop capacity curve with its schedule-based latency
// tails, the interpolated knee from two identical-seed runs, and the
// diurnal demonstration leg.
func reportCapacity(w io.Writer, quick bool) error {
	res, err := CapacitySweep(quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model: %d workers × %v hold → %.0f gen/s; mix %.0f%% incapable; ",
		res.GenWorkers, res.GenHold, res.GenCapacityRPS, 100*res.IncapableShare)
	fmt.Fprintf(w, "Zipf(1.1) over %d pages, cache = top %d (miss share %.2f)\n",
		res.CorpusPages, res.CacheTopPages, res.MissShare)
	fmt.Fprintf(w, "predicted knee %.0f/s (shed > %.0f%%)\n",
		res.PredictedKneeRPS, 100*KneeShedThreshold)
	fmt.Fprintf(w, "%-5s %9s %9s %6s %6s %5s %4s %9s %6s %6s %8s %8s %8s\n",
		"mult", "offered", "realized", "reqs", "ok", "shed", "err", "goodput", "gp_x", "shed%", "p50", "p95", "p99")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%4.1fx %7.0f/s %7.0f/s %6d %6d %5d %4d %7.0f/s %6.2f %5.1f%% %8v %8v %8v\n",
			r.Multiplier, r.OfferedRPS, r.RealizedRPS, r.Requests, r.OK, r.Shed, r.Errors,
			r.GoodputRPS, r.GoodputX, 100*r.ShedRate,
			r.P50.Round(time.Millisecond), r.P95.Round(time.Millisecond), r.P99.Round(time.Millisecond))
	}
	delta := 0.0
	if res.KneeRPS2 > 0 {
		delta = 100 * (res.KneeRPS2 - res.KneeRPS) / res.KneeRPS
	}
	fmt.Fprintf(w, "measured knee %.0f/s (run2 %.0f/s, delta %+.1f%%; knee_x %.2f)\n",
		res.KneeRPS, res.KneeRPS2, delta, res.KneeRPS/res.GenCapacityRPS)
	fmt.Fprintf(w, "goodput_frac %.3f (floor %.3f)\n", res.GoodputFrac, res.GoodputFloor)
	if res.DiurnalPeakShed >= 0 {
		fmt.Fprintf(w, "diurnal day at knee rate: peak shed %.1f%%, trough shed %.1f%%\n",
			100*res.DiurnalPeakShed, 100*res.DiurnalTroughShed)
	}
	return nil
}

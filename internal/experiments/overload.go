package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/overload"
	"sww/internal/telemetry"
	"sww/internal/workload"
)

// OverloadRow is one offered-load point of the E19 sweep: a server
// with fixed admitted generation capacity driven at a multiple of
// that capacity by traditional (non-generative) clients, so every
// page request demands a server-side generation.
type OverloadRow struct {
	// Multiplier is offered load over admitted generation capacity.
	Multiplier float64
	// OfferedRPS is the request arrival rate.
	OfferedRPS float64

	Requests int
	OK       int
	Shed     int // 503 + Retry-After replies observed by clients
	Errors   int // anything else (should stay 0 — the server must not melt)

	// GoodputRPS is completed pages per second of wall time.
	GoodputRPS float64
	// ShedRate is Shed / Requests.
	ShedRate float64

	// P50 / P99 are latency percentiles over successful requests,
	// measured from each request's *intended* send time on the
	// metronome schedule (telemetry.ScheduleClock): timing from the
	// actual send understates overload latency whenever the driver
	// falls behind (coordinated omission; EXPERIMENTS.md E19 records
	// by how much).
	P50, P99 time.Duration

	// Stats is the server's overload counter snapshot for the round.
	Stats overload.Stats
}

// overloadCapacity fixes the sweep's admitted generation capacity:
// genWorkers workers each occupied genHold per page → capacity =
// genWorkers/genHold pages per second, enforced twice (pool occupancy
// via GenWallScale and token-bucket admission at the same rate).
const (
	overloadGenWorkers = 2
	overloadGenHold    = 20 * time.Millisecond
)

// OverloadSweep runs E19: drive a capacity-limited generative server
// at 0.5×, 1×, 2× and 4× its admitted generation capacity and record
// goodput, shed rate and latency tails. The healthy signature is flat
// goodput at ~capacity beyond 1× with the excess shed fast as 503 +
// Retry-After (bounded p99), instead of collapsing throughput and
// unbounded queueing. quick trims the sweep for CI smoke runs.
func OverloadSweep(quick bool) ([]OverloadRow, error) {
	multipliers := []float64{0.5, 1, 2, 4}
	perRound := 1500 * time.Millisecond
	if quick {
		multipliers = []float64{1, 4}
		perRound = 500 * time.Millisecond
	}

	// Calibrate GenWallScale so one generation occupies a worker for
	// overloadGenHold of wall time: the modelled SimGenTime is what a
	// real backend would cost. The procedural models are not free
	// beside it (a LoadPage is ~1.5 ms of real CPU, 7% of the hold),
	// so the probe's own wall time joins the service time below.
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
	// Effective per-generation worker occupancy is the configured hold
	// plus the real (procedural) pipeline wall time, so capacity is
	// calibrated against both — otherwise even a half-loaded round
	// queues and sheds.
	serviceTime := overloadGenHold + procWall
	capacity := float64(overloadGenWorkers) / serviceTime.Seconds()

	var rows []OverloadRow
	for _, mult := range multipliers {
		offered := capacity * mult
		interval := time.Duration(float64(time.Second) / offered)
		requests := int(float64(perRound) / float64(interval))

		srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			return nil, err
		}
		srv.SetOverload(overload.Config{
			MaxGenWorkers: overloadGenWorkers,
			QueueDeadline: 4 * overloadGenHold,
			AdmitRPS:      capacity,
			AdmitBurst:    4 * overloadGenWorkers,
			GenWallScale:  wallScale,
		})
		// Every request targets its own cold page: each completed page
		// is one real generation, so offered load translates directly
		// into generation demand.
		for i := 0; i < requests; i++ {
			srv.AddPage(workload.LoadPage(i))
		}

		// A small pool of traditional client connections spreads the
		// request stream below the per-connection stream limit.
		conns := make([]*core.Client, 8)
		for i := range conns {
			cEnd, sEnd := net.Pipe()
			srv.StartConn(sEnd)
			cl, err := core.NewClient(cEnd, device.Laptop, nil)
			if err != nil {
				return nil, err
			}
			conns[i] = cl
		}

		row := OverloadRow{Multiplier: mult, OfferedRPS: offered, Requests: requests}
		var mu sync.Mutex
		var wg sync.WaitGroup
		var okSched []time.Duration

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		// The metronome's tick i lands at (i+1)×interval after start;
		// that instant — not whenever the driver actually got around to
		// sending — is the latency origin for the corrected percentiles.
		clock := telemetry.StartSchedule(time.Now())
		tick := time.NewTicker(interval)
		for i := 0; i < requests; i++ {
			<-tick.C
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				intended := time.Duration(i+1) * interval
				_, err := conns[i%len(conns)].FetchContext(ctx, workload.LoadPagePath(i))
				sched := clock.LatencySince(intended)
				mu.Lock()
				defer mu.Unlock()
				var busy *core.ServerBusyError
				switch {
				case err == nil:
					row.OK++
					okSched = append(okSched, sched)
				case errors.As(err, &busy):
					row.Shed++
				default:
					row.Errors++
				}
			}(i)
		}
		tick.Stop()
		wg.Wait()
		elapsed := time.Since(clock.Start())
		cancel()
		for _, cl := range conns {
			cl.Close()
		}

		row.GoodputRPS = float64(row.OK) / elapsed.Seconds()
		if row.Requests > 0 {
			row.ShedRate = float64(row.Shed) / float64(row.Requests)
		}
		row.P50, row.P99 = percentiles(okSched)
		row.Stats = srv.OverloadStats()
		rows = append(rows, row)
	}
	return rows, nil
}

func reportOverload(w io.Writer, quick bool) error {
	rows, err := OverloadSweep(quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "capacity-limited generative server at multiples of admitted generation\n")
	fmt.Fprintf(w, "capacity; healthy signature: flat goodput beyond 1x, excess shed as 503.\n")
	fmt.Fprintf(w, "p50/p99 measure from each request's intended send slot.\n")
	fmt.Fprintf(w, "%-5s %9s %6s %5s %6s %5s %9s %7s %9s %9s %6s\n",
		"mult", "offered", "reqs", "ok", "shed", "err", "goodput", "shed%", "p50", "p99", "flips")
	for _, r := range rows {
		fmt.Fprintf(w, "%4.1fx %7.0f/s %6d %5d %6d %5d %7.0f/s %6.1f%% %9v %9v %6d\n",
			r.Multiplier, r.OfferedRPS, r.Requests, r.OK, r.Shed, r.Errors,
			r.GoodputRPS, 100*r.ShedRate,
			r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond),
			r.Stats.ShedPolicyFlip)
	}
	return nil
}

// percentiles returns the 50th and 99th percentile of durs (zeros for
// an empty slice).
func percentiles(durs []time.Duration) (p50, p99 time.Duration) {
	if len(durs) == 0 {
		return 0, 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	idx := func(p float64) int {
		i := int(p * float64(len(durs)-1))
		return i
	}
	return durs[idx(0.50)], durs[idx(0.99)]
}

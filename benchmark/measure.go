package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// maxSetups caps how often a cheap set-up is repeated to fill
// config.setupFloor.
const maxSetups = 600

// keepAwake runs one yielding spinner per P until the returned func is
// called. A cheap set-up is some seventy sequential round trips on an
// otherwise idle process: every hop parks a thread, the vCPU halts, and
// what gets timed is how long the host takes to wake it (medians of 250
// set-ups ranged 7.9–11.4 ms between processes; with the spinners
// 5.7–7.2 ms). The spinners yield to any runnable goroutine, so they
// take nothing from the set-up but its idle time.
func keepAwake() (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !quit.Load() {
				runtime.Gosched()
			}
		}()
	}
	return func() {
		quit.Store(true)
		wg.Wait()
	}
}

// A span is one timed interval the benchmark itself recorded.
type span struct {
	start time.Time
	dur   time.Duration
}

// A fetchSpan is one fetch: when the client was free to send it, how
// long until the checked reply, and which page.
type fetchSpan struct {
	span
	page int
}

// A recorder keeps one client's fetches, 16 bytes each, in memory mapped
// outside the Go heap. On the heap the log would grow the live heap
// through the window, the collector would run less and less often, and
// the program would measure faster slice by slice for no doing of its
// own (seen: fetch_rps +15% and fetch_p99_us halved from the first
// slice to the fifth). The touched part of the log is the benchmark's
// own share of peak_rss_mb.
type recorder struct {
	epoch time.Time
	mem   []byte
	recs  []fetchRec // over mem
	n     int
}

type fetchRec struct {
	at   int64  // start, nanoseconds after the recorder's epoch
	dur  uint32 // nanoseconds, capped at about 4.29 s
	page uint32
}

// recorderCap is the fetches one client can log: a minute at 60k/s.
const recorderCap = 1 << 22

func newRecorder() (*recorder, error) {
	mem, err := syscall.Mmap(-1, 0, recorderCap*int(unsafe.Sizeof(fetchRec{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the fetch log: %w", err)
	}
	return &recorder{
		epoch: time.Now(),
		mem:   mem,
		recs:  unsafe.Slice((*fetchRec)(unsafe.Pointer(&mem[0])), recorderCap),
	}, nil
}

func (r *recorder) close() {
	if r.mem != nil {
		syscall.Munmap(r.mem)
		r.mem, r.recs = nil, nil
	}
}

// add logs one fetch; a full log drops it (the window's counts come
// from the clients' counters, not from here).
func (r *recorder) add(start time.Time, dur time.Duration, page int) {
	if r.n == len(r.recs) {
		return
	}
	if dur > math.MaxUint32 {
		dur = math.MaxUint32
	}
	r.recs[r.n] = fetchRec{int64(start.Sub(r.epoch)), uint32(dur), uint32(page)}
	r.n++
}

func (r *recorder) each(fn func(fetchSpan)) {
	for _, f := range r.recs[:r.n] {
		fn(fetchSpan{span{r.epoch.Add(time.Duration(f.at)), time.Duration(f.dur)}, int(f.page)})
	}
}

func (r *recorder) reset() { r.n = 0 }

// A mark is what the run reads at a slice boundary: the instant, the
// clients' counters and the process-wide costs.
type mark struct {
	at        time.Time
	fetches   int64
	failed    int64
	wire      int64
	mallocs   uint64
	mutexWait float64 // seconds
	cpu       time.Duration
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (t *topology) mark() mark {
	m := mark{at: time.Now(), wire: t.wire.Load(), cpu: cpuTime()}
	for _, c := range t.clients {
		m.fetches += c.done.Load()
		m.failed += c.failed.Load()
	}
	metrics.Read(runtimeSamples)
	m.mallocs = runtimeSamples[0].Value.Uint64()
	m.mutexWait = runtimeSamples[1].Value.Float64()
	return m
}

// A window is one measured stretch of closed-loop load.
type window struct {
	marks   []mark            // slices+1 boundaries
	samples [][]time.Duration // per slice, sorted
	c0, c1  counters          // the layers' counts at the first and last boundary
}

// load runs the clients for warm (unrecorded) and then for span, cut
// into equal slices of about slice each, and returns the boundaries and
// the per-slice latencies. The clients keep their page sequences across
// calls.
func (t *topology) load(warm, span, slice time.Duration) *window {
	n := int(span / slice)
	if n < 1 {
		n = 1
	}
	var stop, recording atomic.Bool
	var wg sync.WaitGroup
	for _, c := range t.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(&stop, &recording)
		}(c)
	}
	stopChurn := t.startChurn()
	time.Sleep(warm)
	for _, c := range t.clients {
		c.rec.reset()
	}
	w := &window{}
	begin := time.Now()
	recording.Store(true)
	w.c0 = t.counters()
	w.marks = append(w.marks, t.mark())
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(begin.Add(span * time.Duration(i) / time.Duration(n))))
		w.marks = append(w.marks, t.mark())
	}
	w.c1 = t.counters()
	recording.Store(false)
	stop.Store(true)
	wg.Wait()
	stopChurn()

	w.samples = make([][]time.Duration, n)
	for _, c := range t.clients {
		c.rec.each(func(s fetchSpan) {
			end := s.start.Add(s.dur)
			i := sort.Search(n, func(i int) bool { return end.Before(w.marks[i+1].at) })
			if i < n && !end.Before(w.marks[0].at) {
				w.samples[i] = append(w.samples[i], s.dur)
			}
		})
	}
	for _, s := range w.samples {
		slices.Sort(s)
	}
	return w
}

func (w *window) first() mark { return w.marks[0] }
func (w *window) last() mark  { return w.marks[len(w.marks)-1] }

func (w *window) fetches() int64 { return w.last().fetches - w.first().fetches }

// quantile returns the q-quantile of sorted s in microseconds.
func quantile(s []time.Duration, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Microsecond)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// perSlice evaluates fn on each slice (its boundaries and its sorted
// latencies) and returns the median of the results.
func (w *window) perSlice(fn func(a, b mark, lat []time.Duration) float64) float64 {
	vals := make([]float64, len(w.samples))
	for i := range w.samples {
		vals[i] = fn(w.marks[i], w.marks[i+1], w.samples[i])
	}
	return median(vals)
}

func perFetch(delta float64, a, b mark) float64 {
	if b.fetches == a.fetches {
		return 0
	}
	return delta / float64(b.fetches-a.fetches)
}

func (w *window) rps() float64 {
	return w.perSlice(func(a, b mark, _ []time.Duration) float64 {
		ok := (b.fetches - a.fetches) - (b.failed - a.failed)
		return float64(ok) / b.at.Sub(a.at).Seconds()
	})
}

func (w *window) p50() float64 {
	return w.perSlice(func(_, _ mark, lat []time.Duration) float64 { return quantile(lat, 0.50) })
}

// p99 is taken over the whole window: a slice of the cold workload has
// too few fetches to have ten beyond its 99th percentile.
func (w *window) p99() (us float64, samples int) {
	var all []time.Duration
	for _, lat := range w.samples {
		all = append(all, lat...)
	}
	slices.Sort(all)
	return quantile(all, 0.99), len(all)
}

// endToEnd adds the metrics a user of the tier would see. setups are
// the run's set-up times in seconds.
func (r *result) endToEnd(w *window, setups []float64) {
	n := len(w.samples)
	r.add("setup_s", "s", median(setups), len(setups))
	r.add("fetch_rps", "1/s", w.rps(), n)
	r.add("fetch_p50_us", "us", w.p50(), n)
	r.add("wire_bytes_per_fetch", "B", w.perSlice(func(a, b mark, _ []time.Duration) float64 {
		return perFetch(float64(b.wire-a.wire), a, b)
	}), n)
	r.add("allocs_per_fetch", "count", w.perSlice(func(a, b mark, _ []time.Duration) float64 {
		return perFetch(float64(b.mallocs-a.mallocs), a, b)
	}), n)
	r.add("cpu_us_per_fetch", "us", w.perSlice(func(a, b mark, _ []time.Duration) float64 {
		return perFetch(float64(b.cpu-a.cpu)/float64(time.Microsecond), a, b)
	}), n)
	r.add("peak_rss_mb", "MB", peakRSSMB(), 1)
}

// run executes one workload run: timed set-ups, warm-up, the measured
// window, the validity guards, and — on a trace run — the layer ledger.
func run(cfg config) (*result, error) {
	sp := specByName(cfg.workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{workload: sp.name, seed: cfg.seed, trace: cfg.trace}

	// Set-up is booted at least cfg.setups times — and, where one boot
	// takes milliseconds, until cfg.setupFloor of set-up has been timed — and
	// reported as the median, so one slow listen or dial does not decide
	// the metric. Only the last tier is kept.
	var t *topology
	var setups []float64
	awake := keepAwake()
	for total := 0.0; len(setups) < cfg.setups || (total < cfg.setupFloor.Seconds() && len(setups) < maxSetups); {
		if t != nil {
			t.close()
		}
		start := time.Now()
		var err error
		if t, err = boot(sp, cfg.seed); err != nil {
			awake()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	awake()
	defer t.close()
	runtime.GC() // the discarded tiers are not the window's garbage

	if cfg.trace {
		if err := t.ledger(cfg, res); err != nil {
			return nil, err
		}
	} else {
		w := t.load(cfg.warm, cfg.window, cfg.slice)
		res.guard = t.drain()
		res.account(t, w)
		res.endToEnd(w, setups)
		if res.guard == nil {
			res.guard = t.validate(w.c1.sub(w.c0), w.fetches())
		}
	}
	return res, nil
}

// account fills the attempted/failed totals of the window and the first
// failure any client saw.
func (r *result) account(t *topology, w *window) {
	r.attempted += w.fetches()
	r.failed += w.last().failed - w.first().failed
	for _, c := range t.clients {
		if r.firstFailure == "" {
			r.firstFailure = c.first
		}
	}
}

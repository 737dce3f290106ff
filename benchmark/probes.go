package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/hpack"
	"sww/internal/html"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/workload"
)

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeOps runs fn in timed batches for about d (at least three
// batches) and returns the median time per call in nanoseconds, the
// allocations per call and the calls made.
func timeOps(d time.Duration, batch int, fn func()) (ns, allocs float64, ops int) {
	var per []float64
	a0 := heapAllocs()
	for deadline := time.Now().Add(d); len(per) < 3 || time.Now().Before(deadline); {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(batch))
	}
	ops = len(per) * batch
	return median(per), float64(heapAllocs()-a0) / float64(ops), ops
}

// probes runs the isolation probes, each for about d, with the clients
// stopped: each replays what the workload itself sent — its response
// header list, its frames, a page it fetched — through one layer's
// public functions in a timed loop. The raw h2 round trip goes first:
// it is where the header list and the page are captured.
func (lg *ledger) probes(d time.Duration) error {
	for _, p := range []struct {
		name string
		run  func(time.Duration) error
	}{
		{"http2.roundtrip", lg.probeRoundtrip},
		{"hpack", lg.probeHpack},
		{"http2.framer", lg.probeFramer},
		{"net.loopback", lg.probeLoopback},
		{"http3.fetch", lg.probeH3},
		{"html", lg.probeHTML},
		{"core.process", lg.probeProcess},
		{"core.compression", lg.probeCompression},
		{"genai", lg.probeGenai},
		{"lookups", lg.probeLookups},
	} {
		start := time.Now()
		err := p.run(d)
		lg.probeNames = append(lg.probeNames, p.name)
		lg.probeSpans = append(lg.probeSpans, span{start, time.Since(start)})
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// probeRoundtrip drives the benchmark's raw h2 client against the live
// fronts: as many connections at once as the workload has clients, each
// continuing its client's page sequence, every reply checked.
func (lg *ledger) probeRoundtrip(d time.Duration) error {
	t, res := lg.t, lg.res
	var setups []float64
	workers := make([][]*rawConn, len(t.clients))
	defer func() {
		for _, conns := range workers {
			for _, c := range conns {
				c.close()
			}
		}
	}()
	for i := range workers {
		for _, f := range t.fronts {
			c, setup, err := dialRaw(f.addr(), t.sp.ability)
			if err != nil {
				return err
			}
			workers[i] = append(workers[i], c)
			setups = append(setups, float64(setup)/float64(time.Microsecond))
		}
	}
	var (
		mu    sync.Mutex
		lat   []time.Duration
		first error
		wg    sync.WaitGroup
		stop  atomic.Bool
	)
	a0 := heapAllocs()
	for i, conns := range workers {
		wg.Add(1)
		go func(cl *client, conns []*rawConn) {
			defer wg.Done()
			var mine []time.Duration
			var err error
			for err == nil && !stop.Load() {
				page := cl.src.next()
				path := t.paths[page]
				start := time.Now()
				var reply *core.RawReply
				reply, err = conns[t.route(path)].get(path)
				mine = append(mine, time.Since(start))
				if why := t.check(page, reply, err); why != "" && err == nil {
					err = fmt.Errorf("%s: %s", path, why)
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			if first == nil {
				first = err
			}
			mu.Unlock()
		}(t.clients[i], conns)
	}
	time.Sleep(3 * d)
	stop.Store(true)
	wg.Wait()
	if first != nil {
		return first
	}
	allocs := float64(heapAllocs()-a0) / float64(len(lat))
	slices.Sort(lat)
	blockBytes, responses := 0, 0
	for _, conns := range workers {
		for _, c := range conns {
			blockBytes += c.respBlock
			responses += int(c.nextID / 2)
			if lg.respFields == nil && len(c.respFields) > 0 {
				lg.respFields = append([]hpack.HeaderField(nil), c.respFields...)
				lg.body = append([]byte(nil), c.body...)
			}
		}
	}
	res.add("http2.roundtrip_us", "us", quantile(lat, 0.5), len(lat))
	res.add("http2.allocs_per_roundtrip", "count", allocs, len(lat))
	res.add("http2.conn_setup_us", "us", median(setups), len(setups))
	res.add("hpack.block_bytes", "B", ratio(float64(blockBytes), float64(responses)), responses)
	return nil
}

// probeHpack codes the captured response field list in steady state:
// the first block fills the dynamic table, the second is what repeats.
func (lg *ledger) probeHpack(d time.Duration) error {
	res := lg.res
	enc, dec := hpack.NewEncoder(), hpack.NewDecoder(0)
	first := enc.AppendFields(nil, lg.respFields)
	steady := enc.AppendFields(nil, lg.respFields)
	if _, err := dec.Decode(first); err != nil {
		return err
	}
	buf := make([]byte, 0, len(first))
	ns, allocs, n := timeOps(d, 256, func() { buf = enc.AppendFields(buf[:0], lg.respFields) })
	res.add("hpack.encode_ns", "ns", ns, n)
	res.add("hpack.encode_allocs", "count", allocs, n)
	var err error
	ns, allocs, n = timeOps(d, 256, func() { _, err = dec.Decode(steady) })
	res.add("hpack.decode_ns", "ns", ns, n)
	res.add("hpack.decode_allocs", "count", allocs, n)
	return err
}

// probeFramer writes and reads one response's HEADERS+DATA pair to and
// from memory.
func (lg *ledger) probeFramer(d time.Duration) error {
	block := hpack.NewEncoder().AppendFields(nil, lg.respFields)
	var wire bytes.Buffer
	var err error
	fw := http2.NewFramer(&wire, nil)
	ns, _, n := timeOps(d, 256, func() {
		wire.Reset()
		if werr := fw.WriteHeaders(1, false, true, block); werr != nil {
			err = werr
		}
		if werr := fw.WriteData(1, true, lg.body); werr != nil {
			err = werr
		}
	})
	lg.res.add("http2.frame_write_ns", "ns", ns, n)
	pair := append([]byte(nil), wire.Bytes()...)
	rd := bytes.NewReader(nil)
	fr := http2.NewFramer(nil, rd)
	ns, _, n = timeOps(d, 256, func() {
		rd.Reset(pair)
		for i := 0; i < 2; i++ {
			if _, rerr := fr.ReadFrame(); rerr != nil {
				err = rerr
			}
		}
	})
	lg.res.add("http2.frame_read_ns", "ns", ns, n)
	return err
}

// probeLoopback bounces one byte off an echo server over loopback TCP:
// the floor under every fetch — two socket hops and two goroutine
// wake-ups, no h2.
func (lg *ledger) probeLoopback(d time.Duration) error {
	echo, err := listen()
	if err != nil {
		return err
	}
	echo.serve(func(nc net.Conn) func() {
		go io.Copy(nc, nc)
		return func() { nc.Close() }
	})
	defer echo.close()
	nc, err := net.Dial("tcp", echo.addr())
	if err != nil {
		return err
	}
	defer nc.Close()
	one := make([]byte, 1)
	ns, _, n := timeOps(d, 16, func() {
		if _, werr := nc.Write(one); werr != nil {
			err = werr
		}
		if _, rerr := io.ReadFull(nc, one); rerr != nil {
			err = rerr
		}
	})
	lg.res.add("net.loopback_rtt_us", "us", ns/1e3, n)
	return err
}

// probeH3 runs the warm_prompt fetch over the HTTP/3 mapping, one
// client, on a server of its own.
func (lg *ledger) probeH3(d time.Duration) error {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return err
	}
	warm := specByName("warm_prompt")
	for i := 0; i < warm.pages; i++ {
		srv.AddPage(workload.LoadPage(i))
	}
	f, err := listen()
	if err != nil {
		return err
	}
	f.serve(func(nc net.Conn) func() {
		sc := srv.StartConnH3(nc)
		return func() { sc.Close() }
	})
	defer f.close()
	nc, err := net.Dial("tcp", f.addr())
	if err != nil {
		return err
	}
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return err
	}
	cl, err := core.NewClientH3(nc, device.Laptop, proc)
	if err != nil {
		return err
	}
	defer cl.Close()
	src := newPageSource(warm, lg.cfg.seed, 0, 1)
	var lat []time.Duration
	for deadline := time.Now().Add(3 * d); len(lat) < 3 || time.Now().Before(deadline); {
		start := time.Now()
		reply, err := cl.FetchRaw(context.Background(), workload.LoadPagePath(src.next()))
		if err != nil {
			return err
		}
		if reply.Status != 200 || reply.Mode != core.ModeGenerative {
			return fmt.Errorf("status %d mode %q", reply.Status, reply.Mode)
		}
		lat = append(lat, time.Since(start))
	}
	slices.Sort(lat)
	lg.res.add("http3.fetch_p50_us", "us", quantile(lat, 0.5), len(lat))
	return nil
}

// probeHTML parses and renders the page the workload fetched.
func (lg *ledger) probeHTML(d time.Duration) error {
	src := string(lg.body)
	ns, _, n := timeOps(d, 8, func() { html.Parse(src) })
	lg.res.add("html.parse_us", "us", ns/1e3, n)
	doc := html.Parse(src)
	ns, _, n = timeOps(d, 8, func() { html.RenderString(doc) })
	lg.res.add("html.render_us", "us", ns/1e3, n)
	return nil
}

// probeProcess is the paper's on-device path: a laptop's PageProcessor
// turns a prompt page into media, nothing cached.
func (lg *ledger) probeProcess(d time.Duration) error {
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return err
	}
	proc.Pipeline.Cache = nil
	prompt := string(workload.LoadPage(0).PromptBytes())
	ns, _, n := timeOps(d, 1, func() {
		if _, _, perr := proc.Process(html.Parse(prompt)); perr != nil {
			err = perr
		}
	})
	lg.res.add("core.process_us", "us", ns/1e3, n)
	return err
}

// probeCompression counts, on the client sockets, what an incapable
// browser downloads for four pages (page and media: a full
// Client.Fetch) over what a capable one does (the prompt page).
func (lg *ledger) probeCompression(time.Duration) error {
	t := lg.t
	origin := t.back
	if origin == nil {
		origin = t.fronts[0]
	}
	const pages = 4
	var wire [2]atomic.Int64
	for i, ability := range []http2.GenAbility{http2.GenNone, capable} {
		nc, err := t.dialer.dial(origin.addr(), &wire[i])
		if err != nil {
			return err
		}
		cl, err := core.NewClientWithAbility(nc, device.Laptop, nil, ability)
		if err != nil {
			return err
		}
		for p := 0; p < pages; p++ {
			if ability == http2.GenNone {
				_, err = cl.Fetch(t.paths[p])
			} else {
				_, err = cl.FetchRaw(context.Background(), t.paths[p])
			}
			if err != nil {
				return err
			}
		}
	}
	lg.res.add("core.compression_ratio", "ratio", ratio(float64(wire[0].Load()), float64(wire[1].Load())), pages)
	return nil
}

// probeGenai runs one image and one text generation of a LoadPage
// placeholder on the server's device class, uncached.
func (lg *ledger) probeGenai(d time.Duration) error {
	pl, err := genai.NewPipeline(device.Workstation.Class, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return err
	}
	for _, ph := range workload.LoadPage(0).Placeholders() {
		meta := ph.Content.Meta
		switch ph.Content.Type {
		case core.ContentImage:
			ns, _, n := timeOps(d, 1, func() {
				_, err = pl.GenerateImage(genai.ImageRequest{Prompt: meta.Prompt, Width: meta.Width, Height: meta.Height, Steps: meta.Steps})
			})
			lg.res.add("genai.image_us", "us", ns/1e3, n)
		case core.ContentText:
			ns, _, n := timeOps(d, 1, func() {
				_, err = pl.ExpandText(genai.TextRequest{Bullets: meta.Bullets, TargetWords: meta.Words})
			})
			lg.res.add("genai.text_us", "us", ns/1e3, n)
		}
	}
	return err
}

// probeLookups times the two lookups on the cached-reply path.
func (lg *ledger) probeLookups(d time.Duration) error {
	paths := lg.t.paths
	lru := overload.NewByteLRU(1 << 20)
	for _, p := range paths {
		lru.Add(p, p, int64(len(p)))
	}
	i := 0
	ns, _, n := timeOps(d, 256, func() { lru.Get(paths[i%len(paths)]); i++ })
	lg.res.add("overload.lru_get_ns", "ns", ns, n)
	ring := cdn.NewRing(0, "edge-0", "edge-1", "edge-2")
	ns, _, n = timeOps(d, 256, func() { ring.Lookup(paths[i%len(paths)]); i++ })
	lg.res.add("cdn.ring_lookup_ns", "ns", ns, n)
	return nil
}

// Command sww-server runs the §5.1 generative server: an HTTP/2
// server that advertises SETTINGS_GEN_ABILITY, serves the built-in
// demo site in prompt form to generative clients, and falls back to
// traditional content (stored originals or server-side generation)
// for everyone else.
//
// Usage:
//
//	sww-server [-role origin|standby|edge] [-addr :8420]
//	           [-ops-addr 127.0.0.1:8421] [-mutex-profile-fraction 0]
//	           [-origin-log /var/lib/sww/origin] [-origin-epoch-dir /var/lib/sww/origin]
//	sww-server -role standby -origin-addr localhost:8420
//	           [-addr :8425] [-origin-log /var/lib/sww/standby]
//	           [-standby-advertise 127.0.0.1:8425]
//	           [-standby-poll 250ms]
//	sww-server -role edge -origin-addr localhost:8420,localhost:8425
//	           [-addr :8430] [-edge-name edge1]
//	           [-peers edge1=127.0.0.1:8430,edge2=127.0.0.1:8440]
//	           [-edge-advertise 127.0.0.1:8430]
//	           [-edge-ttl 30s] [-edge-max-stale 10m]
//	           [-edge-heartbeat 500ms]
//	           [-edge-snapshot /var/lib/sww/edge1.snap]
//	           [-retry-budget 0.2]
//
// -role origin (the default) runs the generative server (SD3-medium
// images, DeepSeek-R1-8B text, the generative serve policy and the
// library's overload, abuse and artifact-cache defaults) with the CDN
// control surface attached: the /sww-cdn/ invalidation feed that edge
// replicas poll, fed by unpublishes and cache evictions, plus push
// fan-out to any edge that advertises a push address. -origin-log
// makes the invalidation log durable (fsynced WAL plus snapshot
// compaction in that directory), so a restarted origin resumes its
// sequence numbers and edges reconcile incrementally instead of
// flushing. -origin-epoch-dir persists the fencing epoch (defaults to
// the -origin-log directory).
//
// -role standby runs a warm-standby origin: it mirrors the primary at
// -origin-addr over the same push/poll feed the edges use, polling
// every -standby-poll, and after 8 polls of primary silence promotes
// itself — bumping and persisting the fencing epoch so a returning old
// primary is refused (409) rather than splitting the sequence space.
// List the standby in every edge's -origin-addr so edges fail over to
// it.
//
// -role edge runs an edge replica instead: it terminates SWW HTTP/2
// from terminal clients, serves from a local cache shard, pulls misses
// from -origin-addr (a comma-separated list: first the primary, then
// failover origins such as the standby), and keeps serving warm
// entries (age-stamped stale) when every origin is unreachable.
// -retry-budget caps the edge's upstream retries at that fraction of
// recent request volume (a token bucket shared by origin pulls and
// peer fills), so a fleet of edges cannot amplify an origin outage
// into a retry storm; negative disables the budget.
//
// -peers names the edge fleet, either as bare names (placement ring
// only, the pre-mesh behaviour) or as name=addr pairs, which
// additionally join the self-healing mesh: the edge heartbeats every
// addressable peer every -edge-heartbeat, suspects one after 3 failed
// requests in a row and declares it dead after 6, removes dead peers
// from the placement ring (re-admitting them on recovery), and
// consults alive ring-successors for peer-fill when the origin's
// breaker is open. -edge-advertise subscribes the edge to origin push
// invalidation. -edge-snapshot enables crash-safe warm restart: the
// shard and invalidation position are snapshotted there periodically
// and on shutdown, and reloaded on boot.
//
// Every role drains gracefully on SIGTERM/SIGINT: the listener closes,
// in-flight streams get 5s to finish (GOAWAY first, so clients stop
// sending new streams), and an edge flushes its persistence snapshot
// before exiting.
//
// -ops-addr starts an operations listener (off by default): Prometheus
// metrics at /metrics, a JSON snapshot at /statusz, recent request
// traces at /tracez, and net/http/pprof under /debug/pprof/. Keep it
// on a loopback or otherwise private address — it is unauthenticated.
// -mutex-profile-fraction n records 1/n mutex-contention events for
// /debug/pprof/mutex (off by default: sampling costs the hot loop).
//
// The demo site contains /wiki/landscape (Figure 2), /news/article
// (§6.2 text experiment) and /blog/hike (§2.1 travel blog).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/telemetry"
	"sww/internal/workload"
)

// drainTimeout is the grace in-flight streams get on SIGTERM/SIGINT.
const drainTimeout = 5 * time.Second

func main() {
	role := flag.String("role", "origin", "process role: origin|standby|edge")
	addr := flag.String("addr", ":8420", "listen address")
	opsAddr := flag.String("ops-addr", "", "operations listener address for /metrics, /statusz, /tracez, /debug/pprof (empty disables)")
	mutexProfileFraction := flag.Int("mutex-profile-fraction", 0, "runtime mutex-contention sampling: 1/n events recorded for /debug/pprof/mutex (0 disables)")
	originLogDir := flag.String("origin-log", "", "origin/standby role: directory for the durable invalidation log (fsynced WAL + snapshot; empty = in-memory only)")
	originEpochDir := flag.String("origin-epoch-dir", "", "origin/standby role: directory persisting the fencing epoch (empty = the -origin-log directory)")
	standbyAdvertise := flag.String("standby-advertise", "", "standby role: address the primary pushes feeds to (empty = poll only)")
	standbyPoll := flag.Duration("standby-poll", 250*time.Millisecond, "standby role: mirror poll interval (promotes after 8 polls of primary silence)")
	originAddr := flag.String("origin-addr", "", "edge role: comma-separated origin addresses to pull misses from (primary first); standby role: the primary to mirror")
	retryBudget := flag.Float64("retry-budget", 0.2, "edge role: retry deposit per upstream request (token-bucket storm guard; 0 = default, negative disables)")
	edgeName := flag.String("edge-name", "edge1", "edge role: this edge's ring name")
	peerNames := flag.String("peers", "", "edge role: comma-separated fleet, name or name=addr (addr joins the health/peer-fill mesh)")
	edgeAdvertise := flag.String("edge-advertise", "", "edge role: address advertised to the origin for push invalidation (empty = pull only)")
	edgeTTL := flag.Duration("edge-ttl", 30*time.Second, "edge role: cached entry freshness")
	edgeMaxStale := flag.Duration("edge-max-stale", 10*time.Minute, "edge role: how far past TTL an entry may be served when the origin is down")
	edgeHeartbeat := flag.Duration("edge-heartbeat", 500*time.Millisecond, "edge role: peer heartbeat interval and per-request peer timeout (a peer is suspect after 3 failed requests in a row, dead after 6)")
	edgeSnapshot := flag.String("edge-snapshot", "", "edge role: shard snapshot path for crash-safe warm restart (empty disables)")
	flag.Parse()

	// Contention profiling for the wire fast path: off by default
	// (sampling costs the hot loop), switched on per run when pprof's
	// mutex profile needs data. Set before any serving starts so the
	// profile covers the whole process lifetime.
	if *mutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexProfileFraction)
	}

	if *role == "edge" {
		peers, peerDials := cdn.ParsePeers(*peerNames, *edgeName)
		runEdge(cdn.EdgeConfig{
			Name:     *edgeName,
			TTL:      *edgeTTL,
			MaxStale: *edgeMaxStale,
			// 3 attempts of 2s keep the edge's whole upstream ladder
			// inside one sww-client attempt (10s), so a slow origin
			// never makes the client retry work the edge is still doing.
			Retry:            core.RetryPolicy{MaxAttempts: 3, AttemptTimeout: 2 * time.Second},
			Peers:            peers,
			PeerDials:        peerDials,
			AdvertiseAddr:    *edgeAdvertise,
			Heartbeat:        *edgeHeartbeat,
			SnapshotPath:     *edgeSnapshot,
			RetryBudgetRatio: *retryBudget,
		}, *addr, *originAddr, *opsAddr)
		return
	}
	if *role != "origin" && *role != "standby" {
		log.Fatalf("unknown role %q (want origin|standby|edge)", *role)
	}
	isStandby := *role == "standby"
	if isStandby && *originAddr == "" {
		log.Fatal("-role standby requires -origin-addr (the primary to mirror)")
	}

	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		log.Fatalf("building server: %v", err)
	}

	pages := []*core.Page{
		workload.WikimediaLandscape(),
		workload.NewsArticle(),
		workload.TravelBlog(),
	}
	for _, p := range pages {
		srv.AddPage(p)
		fmt.Printf("serving %s (%d placeholders, media ratio %.1fx)\n",
			p.Path, len(p.Placeholders()), p.MediaCompressionRatio())
	}
	// The CDN control surface: edge replicas poll /sww-cdn/ for the
	// sequenced invalidation feed (fed by unpublishes and evictions)
	// and are pushed new entries when they advertise a push address.
	epochDir := *originEpochDir
	if epochDir == "" {
		epochDir = *originLogDir
	}
	origin, err := cdn.NewOriginWithConfig(srv, cdn.OriginConfig{
		LogDir:   *originLogDir,
		EpochDir: epochDir,
		Standby:  isStandby,
	})
	if err != nil {
		log.Fatalf("origin log: %v", err)
	}
	fmt.Printf("cdn: invalidation feed on %s (log depth %d, role %s, epoch %d, seq %d)\n",
		cdn.ControlPrefix, cdn.DefaultInvalidationLog, origin.Role(), origin.Epoch(), origin.Seq())
	if *originLogDir != "" {
		fmt.Printf("cdn: durable invalidation log in %s\n", *originLogDir)
	}
	if isStandby {
		primary := *originAddr
		origin.Follow(func() (net.Conn, error) {
			return net.DialTimeout("tcp", primary, 5*time.Second)
		}, *standbyAdvertise, *standbyPoll)
		fmt.Printf("cdn: standby mirroring %s (poll %v, promote after 8 polls of silence)\n",
			primary, *standbyPoll)
	}

	if *opsAddr != "" {
		set := telemetry.NewSet()
		srv.EnableTelemetry(set)
		origin.Register(set.Registry)
		ol, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			log.Fatalf("ops listen: %v", err)
		}
		go func() { log.Fatalf("ops listener: %v", set.Serve(ol)) }()
		fmt.Printf("ops: metrics/statusz/tracez/pprof on http://%s\n", ol.Addr())
	}

	sww, trad := srv.StorageBytes()
	fmt.Printf("storage: %d B as SWW vs %d B traditional (%.1fx)\n",
		sww, trad, float64(trad)/float64(sww))

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("sww-server listening on %s (h2c)\n", l.Addr())
	serveDraining(l, srv.StartConn, origin.Close)
}

// notifyShutdown returns a channel that fires on SIGTERM/SIGINT.
func notifyShutdown() <-chan os.Signal {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	return stop
}

// connTable tracks live server connections so a drain can walk them.
// Entries remove themselves when their connection dies, so the table
// stays proportional to live connections, not connection history.
type connTable struct {
	mu    sync.Mutex
	conns map[*http2.ServerConn]struct{}
}

func newConnTable() *connTable {
	return &connTable{conns: map[*http2.ServerConn]struct{}{}}
}

func (t *connTable) add(sc *http2.ServerConn) {
	t.mu.Lock()
	t.conns[sc] = struct{}{}
	t.mu.Unlock()
	go func() {
		<-sc.Done()
		t.mu.Lock()
		delete(t.conns, sc)
		t.mu.Unlock()
	}()
}

func (t *connTable) snapshot() []*http2.ServerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*http2.ServerConn, 0, len(t.conns))
	for sc := range t.conns {
		out = append(out, sc)
	}
	return out
}

// serveDraining accepts connections through start until SIGTERM or
// SIGINT, then drains: the listener closes (no new connections), every
// live connection gets a GOAWAY and up to drainTimeout for its
// in-flight streams to finish, then onDrained runs and the process
// exits 0.
func serveDraining(l net.Listener, start func(net.Conn) *http2.ServerConn, onDrained func()) {
	table := newConnTable()
	stop := notifyShutdown()
	done := make(chan struct{})
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				close(done)
				return
			}
			table.add(start(nc))
		}
	}()
	<-stop
	fmt.Println("shutdown: draining in-flight streams")
	l.Close()
	<-done
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, sc := range table.snapshot() {
		wg.Add(1)
		go func(sc *http2.ServerConn) {
			defer wg.Done()
			sc.CloseContext(ctx)
		}(sc)
	}
	wg.Wait()
	if onDrained != nil {
		onDrained()
	}
	fmt.Println("shutdown: drained")
}

// runEdge runs one edge replica: a local cache shard in front of the
// origins in originAddr, serving terminal clients on listenAddr,
// heartbeating its mesh peers, and reconciling the invalidation feed
// by push and anti-entropy poll.
func runEdge(cfg cdn.EdgeConfig, listenAddr, originAddr, opsAddr string) {
	if originAddr == "" {
		log.Fatal("-role edge requires -origin-addr")
	}
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	// -origin-addr is a failover list: the first entry (the primary)
	// is preferred while healthy, later ones (a warm standby) take
	// over when its breaker opens or it answers fenced.
	var originAddrs []string
	for i, addr := range strings.Split(originAddr, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		name := "origin"
		if i > 0 {
			name = fmt.Sprintf("origin%d", i+1)
		}
		origins.Add(name, func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		})
		originAddrs = append(originAddrs, addr)
	}
	if len(originAddrs) == 0 {
		log.Fatal("-role edge requires at least one address in -origin-addr")
	}
	e := cdn.NewEdge(cfg, origins)
	if opsAddr != "" {
		set := telemetry.NewSet()
		e.Register(set.Registry)
		ol, err := net.Listen("tcp", opsAddr)
		if err != nil {
			log.Fatalf("ops listen: %v", err)
		}
		go func() { log.Fatalf("ops listener: %v", set.Serve(ol)) }()
		fmt.Printf("ops: metrics/statusz/tracez/pprof on http://%s\n", ol.Addr())
	}
	if s := e.Stats(); s.SnapshotLoaded > 0 {
		fmt.Printf("edge: restored %d entries from %s (seq %d)\n",
			s.SnapshotLoaded, cfg.SnapshotPath, s.LastSeq)
	}
	e.Start()

	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("sww-edge %q listening on %s, origins %v, fleet %v (%d mesh peers)\n",
		cfg.Name, l.Addr(), originAddrs, cfg.Peers, len(cfg.PeerDials))
	fmt.Printf("edge: ttl %v, max-stale %v, snapshot %q\n",
		cfg.TTL, cfg.MaxStale, cfg.SnapshotPath)
	// Close flushes the final snapshot after the drain, so entries
	// cached by the very last in-flight streams survive the restart.
	serveDraining(l, e.StartConn, func() {
		if err := e.Close(); err != nil {
			log.Printf("edge close: %v", err)
		}
	})
}

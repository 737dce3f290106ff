// Command sww-client is the §5.2 generative client: it connects to an
// sww-server, advertises its generation ability, fetches a page,
// generates the placeholder media locally, and "renders" the result
// by writing the final HTML and all assets to an output directory
// (this prototype's stand-in for the paper's PyQT GUI).
//
// Usage:
//
//	sww-client [-addr localhost:8420] [-path /wiki/landscape]
//	           [-device laptop|workstation|mobile] [-out ./rendered]
//	           [-traditional]
//	           [-peers edge1=localhost:8430,edge2=localhost:8431]
//	           [-probe-peers]
//
// A generative client generates with SD3-medium images and
// DeepSeek-R1-8B text; -traditional fetches as a legacy client.
//
// -peers switches to ring routing through an edge fleet: the path's
// consistent-hash owner is tried first, then its ring successors, so
// a dead edge is failed over without any extra flags. -addr is
// ignored in this mode. -probe-peers additionally health-probes each
// edge once before routing (2s for the whole round), prints every
// edge as alive or dead, and removes the dead ones from the placement
// ring — the ring then reflects live membership rather than the
// flag's boot-time list, so no fetch is spent discovering a dead
// owner the probe already found.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
)

func main() {
	addr := flag.String("addr", "localhost:8420", "server address")
	path := flag.String("path", "/wiki/landscape", "page to fetch")
	dev := flag.String("device", "laptop", "device profile: laptop|workstation|mobile")
	out := flag.String("out", "rendered", "output directory")
	traditional := flag.Bool("traditional", false, "act as a non-generative (legacy) client")
	peers := flag.String("peers", "", "ring-route through an edge fleet: comma-separated name=addr list")
	probePeers := flag.Bool("probe-peers", false, "health-probe the fleet first and drop dead edges from the ring")
	flag.Parse()

	profile, err := profileByName(*dev)
	if err != nil {
		log.Fatal(err)
	}
	var proc *core.PageProcessor
	if !*traditional {
		proc, err = core.NewPageProcessor(profile, imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			log.Fatalf("building pipeline: %v", err)
		}
	}

	if *peers != "" {
		fetchThroughEdges(*peers, *path, *out, *probePeers, profile, proc)
		return
	}

	nc, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	client, err := core.NewClient(nc, profile, proc)
	if err != nil {
		log.Fatalf("handshake: %v", err)
	}
	defer client.Close()
	fmt.Printf("negotiated ability: %v\n", client.Negotiated())

	res, err := client.Fetch(*path)
	if err != nil {
		log.Fatalf("fetch %s: %v", *path, err)
	}
	fmt.Printf("mode:        %s\n", res.Mode)
	fmt.Printf("wire bytes:  %d\n", res.WireBytes)
	fmt.Printf("assets:      %d\n", len(res.Assets))
	if res.Report != nil {
		fmt.Printf("generated:   %d items in %.1f simulated %s-seconds (%.3f Wh)\n",
			len(res.Report.Items), res.Report.SimGenTime.Seconds(), *dev, res.Report.EnergyWh)
		if res.Report.OriginalBytes > 0 {
			fmt.Printf("media ratio: %.1fx (%d B original vs %d B metadata)\n",
				res.Report.MediaCompressionRatio(),
				res.Report.OriginalBytes, res.Report.MetadataContentBytes)
		}
	}
	fmt.Printf("transmit:    %v, %.5f Wh\n", res.TransmitTime, res.TransmitEnergyWh)

	if err := writeRendered(*out, *path, res); err != nil {
		log.Fatalf("writing output: %v", err)
	}
	fmt.Printf("rendered to %s\n", *out)
}

// probeTimeout bounds -probe-peers' one health round.
const probeTimeout = 2 * time.Second

// fetchThroughEdges ring-routes one fetch through the edge fleet in
// spec ("name=addr,name=addr", read by cdn.ParsePeers as the edges
// read it), printing which edge served it. With probe set, a
// synchronous membership round runs first: unresponsive edges are
// declared dead and removed from the ring before routing.
func fetchThroughEdges(spec, path, out string, probe bool, profile device.Profile, proc *core.PageProcessor) {
	names, dials := cdn.ParsePeers(spec, "")
	if len(dials) != len(names) {
		log.Fatalf("bad -peers %q: every entry must be name=addr", spec)
	}
	ec := cdn.NewEdgeClient(cdn.EdgeClientConfig{
		Device: profile,
		Proc:   proc,
		Retry:  core.RetryPolicy{MaxAttempts: 2, PeerTimeout: 2 * time.Second},
	}, dials)
	defer ec.Close()

	if probe {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		states := ec.ProbePeers(ctx)
		cancel()
		names := make([]string, 0, len(states))
		for n := range states {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%s", n, states[n]))
		}
		fmt.Printf("peer states: %s (dead peers removed from ring)\n", strings.Join(parts, " "))
	}

	fmt.Printf("ring owner for %s: %s (failover order %v)\n",
		path, ec.Ring().Lookup(path), ec.Ring().LookupN(path, ec.Ring().Len()))
	res, served, err := ec.Fetch(path)
	if err != nil {
		log.Fatalf("fetch %s: %v", path, err)
	}
	fmt.Printf("served by:   %s\n", served)
	fmt.Printf("mode:        %s\n", res.Mode)
	fmt.Printf("wire bytes:  %d\n", res.WireBytes)
	fmt.Printf("assets:      %d\n", len(res.Assets))
	if err := writeRendered(out, path, res); err != nil {
		log.Fatalf("writing output: %v", err)
	}
	fmt.Printf("rendered to %s\n", out)
}

func profileByName(name string) (device.Profile, error) {
	for _, p := range device.Profiles() {
		if p.Class.String() == name {
			return p, nil
		}
	}
	return device.Profile{}, fmt.Errorf("unknown device %q (want laptop|workstation|mobile)", name)
}

// writeRendered stores the final page and its assets under dir,
// mirroring asset paths as subdirectories.
func writeRendered(dir, pagePath string, res *core.FetchResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pageFile := strings.Trim(strings.ReplaceAll(pagePath, "/", "_"), "_")
	if pageFile == "" {
		pageFile = "index"
	}
	if err := os.WriteFile(filepath.Join(dir, pageFile+".html"), []byte(res.HTML), 0o644); err != nil {
		return err
	}
	for assetPath, data := range res.Assets {
		fp := filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(assetPath, "/")))
		if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(fp, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

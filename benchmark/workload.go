package main

import (
	"math/rand"
	"runtime"
	"strings"

	"sww/internal/core"
	"sww/internal/http2"
)

// A spec is one workload: which topology to boot, who the clients are,
// and what a correct reply looks like. Every workload is a closed loop
// of min(nproc, 4) clients with no think time: the callers modelled (an
// edge pulling from the origin, a browser navigation on one connection)
// wait for their reply, and at tens of microseconds of service time a
// timer-paced open loop on two shared cores would measure the Go timer.
type spec struct {
	name    string
	pages   int              // LoadPages published
	ability http2.GenAbility // what the clients advertise
	mode    string           // the x-sww-mode every reply must carry
	edges   int              // cdn.Edges in front of the origin; 0 = clients talk to the core.Server
	churn   bool             // one invalidator goroutine beside the readers
	cold    bool             // every fetch misses every cache and generates
}

const capable = http2.GenFull | http2.GenUpscaleOnly

var specs = []spec{
	{name: "warm_prompt", pages: 64, ability: capable, mode: core.ModeGenerative},
	{name: "edge_hit", pages: 64, ability: capable, mode: core.ModeGenerative, edges: 3},
	{name: "edge_churn", pages: 64, ability: capable, mode: core.ModeGenerative, edges: 3, churn: true},
	{name: "cold_traditional", pages: 256, ability: http2.GenNone, mode: core.ModeTraditional, cold: true},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// zipfS is the popularity skew of the page draws (rank 0 = page 0).
const zipfS = 1.1

// A pageSource yields one client's page sequence. It depends only on
// the workload, the seed, the client's index and the client count.
type pageSource struct {
	zipf *rand.Zipf // warm and edge workloads: Zipf draws over all pages
	walk []int      // cold: a seeded permutation of the client's own pages, walked cyclically
	pos  int
}

// newPageSource builds client c's sequence. The cold walk gives every
// client a disjoint range of pages (pages/clients each, well above the
// 32-entry LRU), so no fetch ever finds another client's generation in
// the cache or in flight, however far the clients drift apart.
func newPageSource(sp *spec, seed int64, c, clients int) *pageSource {
	rng := rand.New(rand.NewSource(seed*1009 + int64(c)))
	if !sp.cold {
		return &pageSource{zipf: rand.NewZipf(rng, zipfS, 1, uint64(sp.pages-1))}
	}
	lo, hi := c*sp.pages/clients, (c+1)*sp.pages/clients
	walk := make([]int, hi-lo)
	for i := range walk {
		walk[i] = lo + i
	}
	rng.Shuffle(len(walk), func(i, j int) { walk[i], walk[j] = walk[j], walk[i] })
	return &pageSource{walk: walk}
}

func (s *pageSource) next() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	p := s.walk[s.pos]
	s.pos = (s.pos + 1) % len(s.walk)
	return p
}

// invalidationSource yields the churn workload's invalidation targets.
func invalidationSource(sp *spec, seed int64) *pageSource {
	rng := rand.New(rand.NewSource(seed*1009 + 997))
	return &pageSource{zipf: rand.NewZipf(rng, zipfS, 1, uint64(sp.pages-1))}
}

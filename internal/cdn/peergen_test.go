package cdn_test

import (
	"context"
	"net"
	"testing"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/tier"
	"sww/internal/workload"
)

// TestForwardedAbilityAgrees: the ability an edge forwards in
// x-sww-peer-gen is a uint32 masked to the defined bits, and every hop
// must read it so. The origin, an edge and a peer-fill target all have
// to resolve the same header to the same ability — the same bytes,
// under the same cache key — including values past 8 bits, and fall
// back to the negotiated ability together when the header is
// unparsable.
func TestForwardedAbilityAgrees(t *testing.T) {
	h := boot(t, tier.Options{Edges: []string{"edge1"}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	origin := core.NewResilientClient(func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		h.Primary().Server().StartConn(sEnd)
		return cEnd, nil
	}, device.Workstation, nil, tier.ClientRetry)
	defer origin.Close()
	edge := h.Client("edge1")

	for i, tc := range []struct {
		header string
		mode   string
	}{
		{"1", core.ModeGenerative},
		{"7", core.ModeGenerative},
		{"255", core.ModeGenerative},
		{"256", core.ModeTraditional}, // bit 8 alone: not GenBasic
		{"263", core.ModeGenerative},  // GenFull plus bit 8
		{"4294967295", core.ModeGenerative},
		{"4294967296", core.ModeTraditional}, // overflows: the negotiated GenNone stands
		{"full", core.ModeTraditional},
	} {
		path := workload.CDNPagePath(i)
		gen := hpack.HeaderField{Name: core.EdgeGenHeader, Value: tc.header}
		want := core.EffectivePeerGen(http2.GenNone, tc.header)

		direct, err := origin.FetchRawContext(ctx, path, gen)
		if err != nil || direct.Mode != tc.mode {
			t.Fatalf("%s at the origin: mode %q, %v; want %q", tc.header, direct.Mode, err, tc.mode)
		}
		via, err := edge.FetchRawContext(ctx, path, gen)
		if err != nil || via.Mode != tc.mode {
			t.Errorf("%s through the edge: mode %q, %v; want %q", tc.header, via.Mode, err, tc.mode)
		}
		if !h.Edge("edge1").Cached(path, want) {
			t.Errorf("%s: edge did not cache under ability %d", tc.header, want)
		}
		// As a peer-fill target the edge answers from its shard only: a
		// 200 means the fill request resolved to the key just stored.
		fill, err := edge.FetchRawContext(ctx, path, gen, hpack.HeaderField{Name: cdn.PeerFillHeader, Value: "1"})
		if err != nil || fill.Status != 200 || fill.Mode != tc.mode {
			t.Errorf("%s as a peer-fill target: status %d mode %q, %v; want 200 %q",
				tc.header, fill.Status, fill.Mode, err, tc.mode)
		}
	}
}

// TestPeerGenSharesShardEntry: forwarded abilities that agree on every
// defined bit are one ability to the edge. Five GETs of one path whose
// x-sww-peer-gen headers differ only past http2.GenKnown make one
// origin pull and one shard entry, not five.
func TestPeerGenSharesShardEntry(t *testing.T) {
	h := boot(t, tier.Options{Edges: []string{"edge1"}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	edge := h.Client("edge1")
	path := workload.CDNPagePath(0)
	before := h.Edge("edge1").Stats()
	for _, v := range []string{"71", "135", "199", "263", "327"} {
		raw, err := edge.FetchRawContext(ctx, path, hpack.HeaderField{Name: core.EdgeGenHeader, Value: v})
		if err != nil || raw.Status != 200 || raw.Mode != core.ModeGenerative {
			t.Fatalf("GET with ability %s: %v, %v", v, raw, err)
		}
	}
	after := h.Edge("edge1").Stats()
	if pulls, entries := after.Misses-before.Misses, after.CacheEntries-before.CacheEntries; pulls != 1 || entries != 1 {
		t.Fatalf("%d origin pulls and %d shard entries for one path, want 1 and 1", pulls, entries)
	}
	if !h.Edge("edge1").Cached(path, http2.GenFull) {
		t.Fatalf("the entry is not keyed by the masked ability %d", http2.GenFull)
	}
}

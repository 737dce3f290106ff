// Package cdn simulates the content-distribution scenario of paper
// §2.2: edge caches that store prompts instead of media. "Media is
// sent from the content provider to caching locations or edge servers
// as prompts, and only the prompts are saved at the edge. At a
// request of a user, the edge server uses the prompt to generate the
// content and sends it to the requester. This approach maintains the
// storage benefits, but loses data transmission benefits."
//
// Three modes are modelled so the E12 bench can sweep them:
//
//	ModeTraditional — media cached at the edge, media transmitted.
//	ModeEdgeGenerate — prompts cached, edge generates per object,
//	                   media transmitted to the (naive) user.
//	ModeClientGenerate — prompts cached, prompts transmitted, the
//	                   user device generates.
package cdn

import (
	"fmt"
	"time"

	"sww/internal/device"
	"sww/internal/overload"
)

// Mode selects how an edge node serves cached objects.
type Mode int

const (
	ModeTraditional Mode = iota
	ModeEdgeGenerate
	ModeClientGenerate
)

func (m Mode) String() string {
	switch m {
	case ModeTraditional:
		return "traditional"
	case ModeEdgeGenerate:
		return "edge-generate"
	case ModeClientGenerate:
		return "client-generate"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// An Object is one cacheable media item.
type Object struct {
	Key string
	// MediaBytes is the full media size.
	MediaBytes int
	// PromptBytes is the prompt-form size.
	PromptBytes int
	// GenTime is the time to regenerate the media at the edge
	// (workstation-class hardware).
	GenTime time.Duration
}

// cachedBytes is what the object occupies at the edge under a mode.
func (o Object) cachedBytes(m Mode) int {
	if m == ModeTraditional {
		return o.MediaBytes
	}
	return o.PromptBytes
}

// transmittedBytes is what one hit sends to the requester.
func (o Object) transmittedBytes(m Mode) int {
	if m == ModeClientGenerate {
		return o.PromptBytes
	}
	return o.MediaBytes
}

// An EdgeNode is one LRU cache of fixed capacity.
type EdgeNode struct {
	Mode     Mode
	Capacity int64 // bytes

	lru *overload.ByteLRU // key → cached size

	Stats Stats
}

// Stats aggregates an edge node's activity.
type Stats struct {
	Hits, Misses int

	// BytesToUser is transmission toward requesters.
	BytesToUser int64
	// BytesFromOrigin is fill traffic on misses.
	BytesFromOrigin int64

	// EdgeGenTime accumulates generation work done at the edge
	// (ModeEdgeGenerate only: §2.2's energy/carbon trade-off).
	EdgeGenTime time.Duration
	// EdgeGenEnergyWh is that work converted at workstation power.
	EdgeGenEnergyWh float64

	Evictions int
}

// NewEdgeNode builds an empty node.
func NewEdgeNode(mode Mode, capacity int64) *EdgeNode {
	return &EdgeNode{Mode: mode, Capacity: capacity, lru: overload.NewByteLRU(capacity)}
}

// Used returns the occupied cache bytes.
func (n *EdgeNode) Used() int64 { return n.lru.Bytes() }

// Len returns the number of cached objects.
func (n *EdgeNode) Len() int { return n.lru.Len() }

// Request serves one user request for obj, filling from origin on a
// miss. It returns whether the request hit.
func (n *EdgeNode) Request(obj Object) bool {
	hit := false
	if _, ok := n.lru.Get(obj.Key); ok {
		n.Stats.Hits++
		hit = true
	} else {
		n.Stats.Misses++
		// Fill: origin ships the cacheable form.
		n.Stats.BytesFromOrigin += int64(obj.cachedBytes(n.Mode))
		n.insert(obj)
	}
	// Serve.
	n.Stats.BytesToUser += int64(obj.transmittedBytes(n.Mode))
	if n.Mode == ModeEdgeGenerate {
		// Every request regenerates: the edge stores only the prompt.
		n.Stats.EdgeGenTime += obj.GenTime
		n.Stats.EdgeGenEnergyWh += device.Workstation.ImageGenEnergyWh(obj.GenTime)
	}
	return hit
}

func (n *EdgeNode) insert(obj Object) {
	size := int64(obj.cachedBytes(n.Mode))
	if size > n.Capacity {
		// Uncacheable at this capacity. ByteLRU would admit it at the
		// front and evict everything behind it first.
		return
	}
	n.Stats.Evictions += n.lru.Add(obj.Key, nil, size)
}

// HitRate returns hits/(hits+misses).
func (n *EdgeNode) HitRate() float64 {
	total := n.Stats.Hits + n.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(n.Stats.Hits) / float64(total)
}

// EmbodiedCarbonKg returns the embodied carbon of the storage this
// node actually needs for its current working set (§6.4's embodied
// carbon argument: prompt caches need radically less SSD).
func (n *EdgeNode) EmbodiedCarbonKg() float64 {
	return device.EmbodiedCarbonKg(n.Used(), 1)
}

package cdn

// Consistent-hash placement for the live edge tier: every cacheable
// path has one owner edge, chosen by walking a ring of virtual node
// points. Adding or removing an edge moves only the keys in the arcs
// that node's points covered (~1/N of the keyspace), so an edge death
// reshards its keys onto the survivors without disturbing placements
// that were already correct — the property that keeps a failover from
// turning into a fleet-wide cold cache.

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultRingReplicas is the virtual-node count per edge. 64 points
// per node keeps the worst-case ownership imbalance within a few
// percent for small fleets while the ring stays tiny.
const DefaultRingReplicas = 64

type ringPoint struct {
	hash uint64
	node string
}

// A Ring is a consistent-hash ring over named nodes. The zero value
// is not usable; build one with NewRing. All methods are safe for
// concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted by hash
	nodes    map[string]bool
}

// NewRing builds a ring with the given virtual-node replica count
// (<= 0 means DefaultRingReplicas) and initial nodes.
func NewRing(replicas int, nodes ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	r := &Ring{replicas: replicas, nodes: map[string]bool{}}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV avalanches poorly on short, similar strings ("edge1#0",
	// "edge1#1", …): raw sums cluster and one node ends up owning most
	// of the ring. A 64-bit mix finalizer scatters the points.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash: ringHash(node + "#" + strconv.Itoa(i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node and its points (idempotent). Keys it owned
// fall to the next point clockwise — their ring successor.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the node count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Lookup returns the owner node for key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successorLocked(key)].node
}

// successorLocked returns the index of the first point clockwise from
// key's hash: its owner's. Called with r.mu held on a non-empty ring.
func (r *Ring) successorLocked(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// LookupN returns up to n distinct nodes for key in ring order: the
// owner first, then the successors that would inherit the key if the
// nodes before them died. This is the client-side failover order.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	start := r.successorLocked(key)
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

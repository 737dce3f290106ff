package cdn

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/page/%d", i)
	}
	return keys
}

// TestRingDeterminism: the same nodes and key always map to the same
// owner, regardless of insertion order — clients and edges built from
// the same peer list must agree on placement without coordination.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(0, "edge1", "edge2", "edge3")
	b := NewRing(0, "edge3", "edge1", "edge2")
	for _, k := range ringKeys(200) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("insertion order changed owner of %s: %s vs %s", k, a.Lookup(k), b.Lookup(k))
		}
	}
}

// TestRingDistribution: with virtual nodes, ownership spreads across
// the fleet — no edge owns more than ~2× its fair share.
func TestRingDistribution(t *testing.T) {
	r := NewRing(0, "edge1", "edge2", "edge3")
	counts := map[string]int{}
	keys := ringKeys(3000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	fair := len(keys) / r.Len()
	for node, n := range counts {
		if n == 0 {
			t.Fatalf("%s owns nothing", node)
		}
		if n > 2*fair {
			t.Errorf("%s owns %d of %d keys (fair share %d)", node, n, len(keys), fair)
		}
	}
}

// TestRingMinimalResharding: removing one of three edges moves only
// that edge's keys; every key owned by a survivor stays put. This is
// the property that keeps an edge death from cold-starting the whole
// fleet's caches.
func TestRingMinimalResharding(t *testing.T) {
	r := NewRing(0, "edge1", "edge2", "edge3")
	keys := ringKeys(1000)
	before := map[string]string{}
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}
	r.Remove("edge2")
	moved := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if after == "edge2" {
			t.Fatalf("removed node still owns %s", k)
		}
		if before[k] != "edge2" && after != before[k] {
			t.Errorf("%s moved %s → %s though its owner survived", k, before[k], after)
		}
		if before[k] == "edge2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("edge2 owned nothing before removal")
	}
}

// TestRingLookupN: the failover order starts with the owner, lists
// distinct nodes, and its second entry is exactly the owner after the
// first node dies — LookupN is the client's precomputed failover path.
func TestRingLookupN(t *testing.T) {
	r := NewRing(0, "edge1", "edge2", "edge3")
	for _, k := range ringKeys(200) {
		order := r.LookupN(k, 3)
		if len(order) != 3 {
			t.Fatalf("%s: got %d nodes", k, len(order))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("%s: duplicate node %s in %v", k, n, order)
			}
			seen[n] = true
		}
		if order[0] != r.Lookup(k) {
			t.Fatalf("%s: LookupN[0]=%s, Lookup=%s", k, order[0], r.Lookup(k))
		}
		// Simulate the owner dying: the new owner must be the old
		// second choice.
		r2 := NewRing(0, "edge1", "edge2", "edge3")
		r2.Remove(order[0])
		if got := r2.Lookup(k); got != order[1] {
			t.Fatalf("%s: after killing %s owner is %s, LookupN predicted %s", k, order[0], got, order[1])
		}
	}
}

// TestRingEmpty: lookups on an empty ring are nil/"" not panics.
func TestRingEmpty(t *testing.T) {
	r := NewRing(0)
	if r.Lookup("/x") != "" {
		t.Fatal("empty ring returned an owner")
	}
	if got := r.LookupN("/x", 2); got != nil {
		t.Fatalf("empty ring LookupN = %v", got)
	}
	r.Add("only")
	if r.Lookup("/x") != "only" {
		t.Fatal("single-node ring must own everything")
	}
	if got := r.LookupN("/x", 5); len(got) != 1 {
		t.Fatalf("LookupN beyond fleet size = %v", got)
	}
}

// TestParsePeers: the edges and the routing client read -peers with
// one parser, so they build the same ring from the same spec. Spaces
// and empty entries (a trailing comma) must not change the fleet.
func TestParsePeers(t *testing.T) {
	cases := []struct {
		name, spec, self string
		names, dials     []string
	}{
		{"empty", "", "edge1", []string{"edge1"}, nil},
		{"only commas", " , ", "edge1", []string{"edge1"}, nil},
		{"bare names", "edge1,edge2", "edge1", []string{"edge1", "edge2"}, nil},
		{"name=addr", "edge1=a:1,edge2=b:2", "", []string{"edge1", "edge2"}, []string{"edge1", "edge2"}},
		{"self not dialed", "edge1=a:1,edge2=b:2", "edge1", []string{"edge1", "edge2"}, []string{"edge2"}},
		{"spaces", " edge1 = a:1, edge2=b:2 ", "", []string{"edge1", "edge2"}, []string{"edge1", "edge2"}},
		{"empty entries", "edge1=a:1,,edge2=b:2,", "", []string{"edge1", "edge2"}, []string{"edge1", "edge2"}},
		{"mixed", "edge1, edge2=b:2,edge3", "edge3", []string{"edge1", "edge2", "edge3"}, []string{"edge2"}},
	}
	for _, c := range cases {
		names, dials := ParsePeers(c.spec, c.self)
		var dialed []string
		for n := range dials {
			dialed = append(dialed, n)
		}
		sort.Strings(dialed)
		if !reflect.DeepEqual(names, c.names) || !reflect.DeepEqual(dialed, c.dials) {
			t.Errorf("%s: ParsePeers(%q, %q) = %q, dials %q; want %q, dials %q",
				c.name, c.spec, c.self, names, dialed, c.names, c.dials)
		}
	}

	// A dial reaches the trimmed address.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, dials := ParsePeers(fmt.Sprintf("edge1 , edge2= %s ", l.Addr()), "edge1")
	nc, err := dials["edge2"]()
	if err != nil {
		t.Fatalf("dial edge2: %v", err)
	}
	nc.Close()
}

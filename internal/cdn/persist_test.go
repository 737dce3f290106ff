package cdn

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/http2"
)

// snapshotEdge boots an edge that restores its shard from path and
// keeps whatever it restored for as long as a fuzz run lasts.
func snapshotEdge(path string) *Edge {
	return NewEdge(EdgeConfig{Name: "edge1", SnapshotPath: path, MaxStale: 100 * 365 * 24 * time.Hour},
		core.NewEndpointSet(core.EndpointHealthConfig{}))
}

// FuzzEdgeSnapshotLoad: a snapshot is input from disk, and whatever
// bytes sit at SnapshotPath, booting an edge over them never panics and
// restores only entries an invalidation can find: every restored key is
// cacheKey(path, g) for its entry's path and some g <= GenKnown, and
// invalidating every restored path empties the shard.
func FuzzEdgeSnapshotLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), "edge.snap")
	e := snapshotEdge(path)
	for _, k := range []struct {
		path string
		gen  http2.GenAbility
	}{{"/p", http2.GenFull}, {"/p", http2.GenNone}, {"/q", http2.GenFull}} {
		e.store(cacheKey(k.path, k.gen), k.path, k.gen, &core.RawReply{Status: 200, ContentType: "text/html", Body: []byte("page " + k.path)})
	}
	if err := e.SaveSnapshot(); err != nil {
		f.Fatal(err)
	}
	e.cfg.SnapshotPath = "" // Close writes no snapshot of its own
	e.Close()
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	restored := snapshotEdge(path)
	restored.cfg.SnapshotPath = ""
	n := restored.cache.Len()
	restored.Close()
	if n != 3 {
		f.Fatalf("the saved snapshot restores %d entries, want 3", n)
	}
	f.Add(saved)
	for _, n := range []int{len(saved) / 4, len(saved) / 2, len(saved) - 1} {
		f.Add(saved[:n])
	}
	flipped := bytes.Clone(saved)
	flipped[bytes.IndexByte(flipped, '|')+1] ^= 1 // the first key's ability
	f.Add(flipped)
	for _, key := range []string{"/p|999", "/q|7"} {
		bad, err := json.Marshal(snapshotFile{Version: snapshotVersion, Name: "edge1", Entries: []snapshotEntry{{
			Key: key, Path: "/p", Added: time.Now(), Status: 200, ContentType: "text/html", Body: []byte("page"),
		}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "edge.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := snapshotEdge(path)
		e.cfg.SnapshotPath = ""
		defer e.Close()
		var paths []string
		e.cache.Each(func(key string, v any, _ int64) {
			p := v.(*edgeEntry).path
			shardKey := false
			for g := http2.GenNone; g <= http2.GenKnown && !shardKey; g++ {
				shardKey = cacheKey(p, g) == key
			}
			if !shardKey {
				t.Fatalf("restored key %q is not a shard key of its path %q", key, p)
			}
			paths = append(paths, p)
		})
		for _, p := range paths {
			e.InvalidatePath(p)
		}
		if n := e.cache.Len(); n != 0 {
			t.Fatalf("%d restored entries survived invalidating every restored path", n)
		}
	})
}

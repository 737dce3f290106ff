package cdn

// Crash-safe warm restart for the edge shard. An edge that dies and
// comes back cold turns into an origin stampede: every key it used to
// hold is now a synchronous pull, exactly when the fleet may already
// be degraded (the paper's agent-swarm workloads make a cold edge a
// capacity event, not a blip). So the edge periodically snapshots its
// shard — every cached raw reply with its freshness clock, plus the
// last applied invalidation sequence — to one JSON file, written
// atomically (temp file, fsync, rename, directory fsync) so a crash
// at any instant — mid-write or right after the rename — leaves the
// previous snapshot or the new one intact, never a torn one.
//
// On boot the snapshot is reloaded before the edge serves: entries
// already beyond TTL+MaxStale are dropped (they could never be served
// anyway), everything else re-enters the cache with its original
// added time, so freshness and staleness accounting survive the
// restart. Correctness then comes from the invalidation protocol, not
// the snapshot: lastSeq is restored with the entries, and the first
// anti-entropy poll resumes from it — every invalidation issued while
// the edge was down is applied (or, if the log was truncated past our
// position, the reset flushes the whole reloaded shard) before the
// shard has served anything stale for longer than one poll interval.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sww/internal/core"
	"sww/internal/http2"
)

// atomicWriteFile writes data to path so a crash at any instant leaves
// either the old file or the new one, never a torn or missing write:
// the bytes go to a temp file in the same directory, the temp file is
// fsynced before the rename (a rename only orders the *name*; without
// the fsync the kernel may commit the rename before the data blocks,
// and a crash then restores an empty or truncated file under the final
// name), and after the rename the containing directory is fsynced so
// the new directory entry itself is durable. It is the shared write
// path for edge shard snapshots, the origin's durable invalidation
// log snapshot, and the fencing epoch file.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync (it is optional on some)
// still got the rename's atomicity, so their error is not fatal.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// snapshotVersion guards the on-disk format; a mismatch means the
// snapshot was written by an incompatible build and is ignored (a
// cold start, never a crash).
const snapshotVersion = 1

// snapshotFile is the on-disk form of one edge shard.
type snapshotFile struct {
	Version int             `json:"version"`
	Name    string          `json:"name"`
	SavedAt time.Time       `json:"saved_at"`
	LastSeq uint64          `json:"last_seq"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one cached raw reply. Entries are saved in LRU
// order, most recent first.
type snapshotEntry struct {
	Key         string    `json:"key"`
	Path        string    `json:"path"`
	Added       time.Time `json:"added"`
	Status      int       `json:"status"`
	Mode        string    `json:"mode,omitempty"`
	ContentType string    `json:"content_type"`
	Body        []byte    `json:"body"`
}

// SaveSnapshot writes the current shard and lastSeq to the
// configured snapshot path, atomically. No-op without a SnapshotPath.
// Runs from the snapshot loop, from Close, and from the server's
// graceful drain.
func (e *Edge) SaveSnapshot() error {
	if e.cfg.SnapshotPath == "" {
		return nil
	}
	// Hold feedMu so the snapshot is consistent with the invalidation
	// stream: no flush or invalidation can interleave between reading
	// lastSeq and walking the cache, which could persist an entry that
	// sequence claims was already removed.
	e.feedMu.Lock()
	snap := snapshotFile{
		Version: snapshotVersion,
		Name:    e.cfg.Name,
		SavedAt: e.now(),
		LastSeq: e.lastSeq.Load(),
	}
	e.cache.Each(func(key string, value any, _ int64) {
		ent := value.(*edgeEntry)
		snap.Entries = append(snap.Entries, snapshotEntry{
			Key:         key,
			Path:        ent.path,
			Added:       ent.added,
			Status:      ent.raw.Status,
			Mode:        ent.raw.Mode,
			ContentType: ent.raw.ContentType,
			Body:        ent.raw.Body,
		})
	})
	e.feedMu.Unlock()
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := atomicWriteFile(e.cfg.SnapshotPath, data); err != nil {
		return err
	}
	e.snapSaves.Add(1)
	return nil
}

// loadSnapshot restores the shard from disk at boot. Any problem —
// missing file, torn write the rename should have prevented, another
// edge's snapshot — degrades to a cold start; a snapshot is an
// optimization, never a source of truth.
func (e *Edge) loadSnapshot() {
	data, err := os.ReadFile(e.cfg.SnapshotPath)
	if err != nil {
		return
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		e.snapErrors.Add(1)
		return
	}
	if snap.Version != snapshotVersion || snap.Name != e.cfg.Name {
		e.snapErrors.Add(1)
		return
	}
	now := e.now()
	limit := e.cfg.ttl() + e.cfg.maxStale()
	restored := 0
	// Insert in reverse so the most-recently-used entry (saved first)
	// is added last and ends up at the front of the rebuilt LRU.
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		se := snap.Entries[i]
		gen, ok := snapshotGen(se)
		if !ok || now.Sub(se.Added) > limit {
			continue
		}
		raw := &core.RawReply{
			Status:      se.Status,
			Mode:        se.Mode,
			ContentType: se.ContentType,
			Body:        se.Body,
		}
		e.storeAt(se.Key, se.Path, gen, raw, se.Added)
		restored++
	}
	e.lastSeq.Store(snap.LastSeq)
	e.snapRestored.Store(int64(restored))
}

// snapshotGen returns the ability of a restored entry whose key is the
// shard key of its path, cacheKey(Path, gen) with gen <= GenKnown: the
// only keys an invalidation of the path can find. An entry keyed any
// other way is dropped.
func snapshotGen(se snapshotEntry) (http2.GenAbility, bool) {
	g, err := strconv.ParseUint(se.Key[strings.LastIndexByte(se.Key, '|')+1:], 10, 8)
	gen := http2.GenAbility(g)
	return gen, err == nil && gen <= http2.GenKnown && cacheKey(se.Path, gen) == se.Key
}

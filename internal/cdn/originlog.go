package cdn

// Durable storage for the origin's sequenced invalidation log, so a
// restarted origin resumes at its old sequence number instead of
// restarting at zero — which would answer every edge's next poll with
// a reset and flush every warm shard in the fleet at once, exactly
// when a freshly restarted origin can least afford a full-fleet miss
// storm.
//
// The layout is a classic WAL + snapshot pair in one directory:
//
//   - inval.wal — one JSON line per appended entry, fsynced per
//     append. Invalidations are page unpublishes and evictions, a few
//     per second at the extreme, so the fsync is noise next to the
//     push fan-out it triggers.
//   - inval.snap — a point-in-time image of the retained log (seq,
//     floor, entries), written through atomicWriteFile (temp file,
//     fsync, rename, dir fsync).
//
// Compaction is crash-consistent by ordering alone: the snapshot is
// written first (atomically), the WAL truncated second. A crash
// between the two leaves WAL entries whose seq is already <= the
// snapshot's — recovery replays only entries beyond the snapshot, so
// duplicates are skipped structurally, not heuristically. A torn
// final WAL line (the append that was in flight when the machine
// died) ends replay at the last complete entry, which is exactly the
// prefix the fsync ordering guarantees durable.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	originWALName  = "inval.wal"
	originSnapName = "inval.snap"
	epochFileName  = "epoch"

	// originLogVersion guards the snapshot format; a mismatch is
	// treated like a missing snapshot (cold log), never a crash.
	originLogVersion = 1
)

// walEntry is one durable invalidation entry, also the snapshot's
// entry form.
type walEntry struct {
	Seq   uint64   `json:"seq"`
	Paths []string `json:"paths"`
}

// originSnapshot is the on-disk image the WAL is compacted into.
type originSnapshot struct {
	Version int        `json:"version"`
	Seq     uint64     `json:"seq"`
	Floor   uint64     `json:"floor"`
	Entries []walEntry `json:"entries"`
}

// originLogState is what recovery hands back to the Origin.
type originLogState struct {
	seq     uint64
	floor   uint64
	entries []walEntry
	// torn counts WAL lines dropped as unparseable (a torn tail from
	// a crash mid-append; anything after it is unreachable).
	torn int
}

// originLog owns the WAL file handle and compaction bookkeeping.
// Callers serialize access (the Origin calls under o.mu).
type originLog struct {
	dir     string
	wal     *os.File
	pending int // WAL entries since the last compaction
}

// openOriginLog recovers the durable log from dir (creating it when
// missing) and returns the handle plus the recovered state.
func openOriginLog(dir string) (*originLog, originLogState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, originLogState{}, err
	}
	// A file that cannot be read recovers as a missing one; an
	// unwritable WAL fails the open below.
	snap, _ := os.ReadFile(filepath.Join(dir, originSnapName))
	walPath := filepath.Join(dir, originWALName)
	walData, _ := os.ReadFile(walPath)
	st, pending := recoverOriginLog(snap, walData)
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, st, err
	}
	return &originLog{dir: dir, wal: wal, pending: pending}, st, nil
}

// recoverOriginLog rebuilds the log from a snapshot's and a WAL's
// bytes, either of them empty, damaged or torn, and reports how many
// WAL entries it read. What it returns is a log the Origin can serve
// from: entries in strictly increasing seq, the last of them at seq.
func recoverOriginLog(snapData, walData []byte) (st originLogState, pending int) {
	// Snapshot first: it is the compacted prefix.
	var snap originSnapshot
	if err := json.Unmarshal(snapData, &snap); err == nil && snap.Version == originLogVersion {
		st.seq, st.floor, st.entries = snap.Seq, snap.Floor, snap.Entries
		if !servable(snap) {
			// Out of order, or short of the head, which only a damaged
			// file can say: keep no entry, so every position below the
			// head resets.
			st.floor, st.entries = st.seq, nil
		}
	}
	// Then the WAL: replay every complete line beyond the snapshot. An
	// append writes its entry and the newline in one write, so a line
	// without one is the append a crash interrupted, whatever it holds.
	for rest := walData; len(rest) > 0; {
		line, tail, complete := bytes.Cut(rest, []byte{'\n'})
		rest = tail
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e walEntry
		if !complete || json.Unmarshal(line, &e) != nil {
			// Torn tail: nothing after it was acknowledged either.
			st.torn++
			break
		}
		pending++
		if e.Seq <= st.seq {
			// Already covered by the snapshot (a crash landed
			// between snapshot write and WAL truncate).
			continue
		}
		st.entries = append(st.entries, e)
		st.seq = e.Seq
	}
	return st, pending
}

// servable reports whether a snapshot's entries are in strictly
// increasing seq and end at its seq, as compaction writes them.
func servable(snap originSnapshot) bool {
	for i, e := range snap.Entries {
		if i > 0 && e.Seq <= snap.Entries[i-1].Seq {
			return false
		}
	}
	n := len(snap.Entries)
	return n == 0 || snap.Entries[n-1].Seq == snap.Seq
}

// append durably appends one entry: marshal, write one line, fsync.
func (l *originLog) append(e walEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := l.wal.Write(data); err != nil {
		return err
	}
	if err := l.wal.Sync(); err != nil {
		return err
	}
	l.pending++
	return nil
}

// compact replaces the snapshot with snap and truncates the WAL. The
// ordering (snapshot durable first, WAL truncated second) makes a
// crash between the two merely leave duplicate WAL entries, which
// recovery skips by sequence number.
func (l *originLog) compact(snap originSnapshot) error {
	snap.Version = originLogVersion
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := atomicWriteFile(filepath.Join(l.dir, originSnapName), data); err != nil {
		return err
	}
	if err := l.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := l.wal.Seek(0, 0); err != nil {
		return err
	}
	if err := l.wal.Sync(); err != nil {
		return err
	}
	l.pending = 0
	return nil
}

func (l *originLog) close() error {
	if l == nil || l.wal == nil {
		return nil
	}
	return l.wal.Close()
}

// loadEpoch reads the persisted fencing epoch from dir, 0 when the
// file does not exist yet.
func loadEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, epochFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("corrupt epoch file: %w", err)
	}
	return e, nil
}

// saveEpoch durably persists the fencing epoch. The epoch must hit
// disk before the origin acts under it: a promoted standby that
// crashed and forgot its promotion could come back below the fleet's
// epoch and fence itself out of its own authority.
func saveEpoch(dir string, epoch uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, epochFileName),
		[]byte(strconv.FormatUint(epoch, 10)+"\n"))
}

package cdn

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzOriginLogReplay feeds arbitrary snapshot and WAL bytes to
// openOriginLog. Recovery must not panic, and what it returns must be a
// log the Origin can serve from: entries in strictly increasing seq,
// the last of them at the recovered seq. And it must keep the torn-tail
// promise of originlog.go's header: every byte prefix of a WAL — what a
// crash mid-append can leave — replays to a prefix of what the whole
// WAL replays to.
func FuzzOriginLogReplay(f *testing.F) {
	snap := func(s originSnapshot) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := snap(originSnapshot{Version: originLogVersion, Seq: 2, Floor: 0, Entries: []walEntry{
		{Seq: 1, Paths: []string{"/a"}}, {Seq: 2, Paths: []string{"/b", "/c"}},
	}})
	wal := []byte("{\"seq\":2,\"paths\":[\"/b\",\"/c\"]}\n{\"seq\":3,\"paths\":[\"/d\"]}\n{\"seq\":4,\"paths\":[]}\n")
	f.Add(good, wal)
	f.Add([]byte(nil), wal)
	f.Add(good, []byte("{\"seq\":3,\"paths\":[\"/d\"]}\n{\"seq\":4,\"paths\":[\"/p4"))
	f.Add([]byte("not json{"), wal)
	f.Add(snap(originSnapshot{Version: originLogVersion, Seq: 5, Entries: []walEntry{
		{Seq: 5, Paths: []string{"/e"}}, {Seq: 1, Paths: []string{"/a"}}, {Seq: 4, Paths: []string{"/d"}},
	}}), wal)
	f.Add(snap(originSnapshot{Version: originLogVersion, Seq: 9, Floor: 9}), []byte("\n\n{\"seq\":10,\"paths\":[\"/x\"]}\r\n"))
	f.Fuzz(func(t *testing.T, snapData, walData []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, originSnapName), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, originWALName), walData, 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, err := openOriginLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.close()
		for i := 1; i < len(st.entries); i++ {
			if st.entries[i].Seq <= st.entries[i-1].Seq {
				t.Fatalf("recovered seqs out of order: %+v", st.entries)
			}
		}
		if n := len(st.entries); n > 0 && st.seq != st.entries[n-1].Seq {
			t.Fatalf("recovered seq %d, last entry at %d", st.seq, st.entries[n-1].Seq)
		}
		if len(walData) > 4096 {
			return // every prefix of a long WAL costs more than it finds
		}
		for i := range walData {
			p, _ := recoverOriginLog(snapData, walData[:i])
			if len(p.entries) > len(st.entries) || !slices.EqualFunc(p.entries, st.entries[:len(p.entries)], sameEntry) {
				t.Fatalf("WAL prefix %q replays to %+v, not a prefix of the whole WAL's %+v", walData[:i], p.entries, st.entries)
			}
		}
	})
}

func sameEntry(a, b walEntry) bool { return a.Seq == b.Seq && slices.Equal(a.Paths, b.Paths) }

// TestOriginLogLongLine: replay has no line limit. A 17 MiB entry —
// beyond the 16 MiB a bufio.Scanner was once given — replays with the
// entries around it, rather than ending replay there uncounted.
func TestOriginLogLongLine(t *testing.T) {
	long := strings.Repeat("x", 17<<20)
	var wal []byte
	for i, p := range []string{"/a", "/" + long, "/c"} {
		b, err := json.Marshal(walEntry{Seq: uint64(i + 1), Paths: []string{p}})
		if err != nil {
			t.Fatal(err)
		}
		wal = append(append(wal, b...), '\n')
	}
	st, pending := recoverOriginLog(nil, wal)
	if pending != 3 || len(st.entries) != 3 || st.seq != 3 || st.torn != 0 {
		t.Fatalf("replayed %d lines to %d entries, seq %d, %d torn; want 3, 3, 3, 0", pending, len(st.entries), st.seq, st.torn)
	}
}

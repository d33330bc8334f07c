package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sae/internal/record"
)

func sampleOps(n int, base record.ID) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		id := base + record.ID(i)
		if i%4 == 3 {
			ops = append(ops, DeleteOp(id, record.Key(i*17)))
		} else {
			ops = append(ops, InsertOp(record.Synthesize(id, record.Key(i*31))))
		}
	}
	return ops
}

func opsEqual(t *testing.T, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind {
			t.Fatalf("op %d kind %d, want %d", i, got[i].Kind, want[i].Kind)
		}
		switch want[i].Kind {
		case OpInsert:
			if !got[i].Rec.Equal(&want[i].Rec) {
				t.Fatalf("op %d record mismatch", i)
			}
		case OpDelete:
			if got[i].ID != want[i].ID || got[i].Key != want[i].Key {
				t.Fatalf("op %d delete %d/%d, want %d/%d", i, got[i].ID, got[i].Key, want[i].ID, want[i].Key)
			}
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Group
	for g := 0; g < 5; g++ {
		ops := sampleOps(1+g*3, record.ID(1000*g+1))
		if err := l.AppendGroup(uint64(g+1), ops); err != nil {
			t.Fatalf("AppendGroup: %v", err)
		}
		want = append(want, Group{Seq: uint64(g + 1), Ops: ops})
	}
	if got := l.Syncs(); got != 5 {
		t.Fatalf("Syncs = %d, want 5 (one per group)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, groups, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if len(groups) != len(want) {
		t.Fatalf("replayed %d groups, want %d", len(groups), len(want))
	}
	for i := range want {
		if groups[i].Seq != want[i].Seq {
			t.Fatalf("group %d seq %d, want %d", i, groups[i].Seq, want[i].Seq)
		}
		opsEqual(t, groups[i].Ops, want[i].Ops)
	}
}

// TestTornTailDiscarded truncates the log at every byte boundary inside
// the final group and checks that replay yields exactly the fully
// committed prefix — never a partial group — and that the reopened log
// appends cleanly after the torn tail is stripped.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g1 := sampleOps(4, 1)
	g2 := sampleOps(6, 100)
	if err := l.AppendGroup(1, g1); err != nil {
		t.Fatal(err)
	}
	sizeAfterG1 := l.Size()
	if err := l.AppendGroup(2, g2); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	for cut := sizeAfterG1; cut < int64(len(full)); cut += 97 {
		tp := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(tp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, groups, err := Open(tp)
		if err != nil {
			t.Fatalf("Open torn@%d: %v", cut, err)
		}
		if len(groups) != 1 {
			t.Fatalf("torn@%d: replayed %d groups, want 1", cut, len(groups))
		}
		opsEqual(t, groups[0].Ops, g1)
		if tl.Size() != sizeAfterG1 {
			t.Fatalf("torn@%d: size %d after truncate, want %d", cut, tl.Size(), sizeAfterG1)
		}
		// The log must keep working after recovery.
		if err := tl.AppendGroup(2, g2); err != nil {
			t.Fatalf("torn@%d: append after recovery: %v", cut, err)
		}
		tl.Close()
		_, groups, err = Open(tp)
		if err != nil || len(groups) != 2 {
			t.Fatalf("torn@%d: reopen after repair: %d groups, err=%v", cut, len(groups), err)
		}
	}
}

// TestCorruptFrameStopsReplay flips a byte inside the first group and
// checks that replay surfaces nothing from the damaged point on.
func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(1, sampleOps(4, 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xFF // inside the first op's payload: CRC must catch it
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, groups, err := Open(path)
	if err != nil {
		t.Fatalf("Open corrupt: %v", err)
	}
	defer l2.Close()
	if len(groups) != 0 {
		t.Fatalf("replayed %d groups from a corrupt log, want 0", len(groups))
	}
	if l2.Size() != 0 {
		t.Fatalf("corrupt log retained %d bytes after recovery", l2.Size())
	}
}

func TestResetTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(1, sampleOps(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("size %d after Reset", l.Size())
	}
	if err := l.AppendGroup(9, sampleOps(2, 50)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, groups, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Seq != 9 {
		t.Fatalf("after Reset replay: %d groups (first seq %v), want just seq 9", len(groups), groups)
	}
}

func TestEmptyAndMissingLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.log")
	l, groups, err := Open(path)
	if err != nil {
		t.Fatalf("Open missing: %v", err)
	}
	if len(groups) != 0 || l.Size() != 0 {
		t.Fatalf("missing log replayed %d groups, size %d", len(groups), l.Size())
	}
	l.Close()
}

// goldenGroups are the groups testdata/parent.wal holds: inserts and
// deletes interleaved, a lone delete, a lone insert.
func goldenGroups() []Group {
	return []Group{
		{Seq: 7, Ops: sampleOps(6, 100)},
		{Seq: 8, Ops: []Op{DeleteOp(0xDEADBEEF01, record.KeyDomain-1)}},
		{Seq: 9, Ops: []Op{InsertOp(record.Synthesize(1<<40, 0))}},
	}
}

// TestGoldenLog pins the on-disk format: testdata/parent.wal was written
// by AppendGroup before it encoded into a reused buffer and computed the
// CRC without a hasher. The log replays to its groups, and appending the
// same groups today writes the same bytes — frames, CRCs and commit
// markers.
func TestGoldenLog(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old := filepath.Join(dir, "parent.wal")
	if err := os.WriteFile(old, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, groups, err := Open(old)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	want := goldenGroups()
	if len(groups) != len(want) {
		t.Fatalf("replayed %d groups, want %d", len(groups), len(want))
	}
	for i := range want {
		if groups[i].Seq != want[i].Seq {
			t.Fatalf("group %d seq %d, want %d", i, groups[i].Seq, want[i].Seq)
		}
		opsEqual(t, groups[i].Ops, want[i].Ops)
	}

	path := filepath.Join(dir, "new.wal")
	if l, err = Create(path); err != nil {
		t.Fatal(err)
	}
	for _, g := range want {
		if err := l.AppendGroup(g.Seq, g.Ops); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		for i := range got {
			if i >= len(golden) || got[i] != golden[i] {
				t.Fatalf("log differs from the golden one at byte %d of %d (golden %d bytes)", i, len(got), len(golden))
			}
		}
		t.Fatalf("log is a %d-byte prefix of the %d-byte golden one", len(got), len(golden))
	}
}

// TestAppendGroupAllocs: a group is encoded into the log's own buffer,
// and its CRCs are computed without a hasher.
func TestAppendGroupAllocs(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ops := sampleOps(32, 1)
	seq := uint64(0)
	if n := testing.AllocsPerRun(20, func() {
		seq++
		if err := l.AppendGroup(seq, ops); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendGroup allocates %.1f objects per group, want 0", n)
	}
}

// FuzzDecodeGroups feeds the one group decoder the golden log, a torn
// tail and a flipped CRC, and mutations of them. It must never panic; the
// prefix it consumes must re-encode, byte for byte, from the groups it
// decoded; and that prefix must end at or before the first frame that is
// torn or fails its CRC.
func FuzzDecodeGroups(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-7])
	flipped := bytes.Clone(golden)
	flipped[len(flipped)-1] ^= 0xFF // the last commit marker's CRC
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		gs, n := DecodeGroups(b)
		if bad := firstBad(b); n < 0 || n > bad {
			t.Fatalf("decoded %d bytes; the first bad frame starts at %d", n, bad)
		}
		var re []byte
		for _, g := range gs {
			if re, err = EncodeGroup(re, g.Seq, g.Ops); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("%d groups re-encode to %d bytes that differ from the %d decoded", len(gs), len(re), n)
		}
	})
}

// firstBad is the offset of b's first frame that is torn or fails its
// CRC, or len(b) when there is none, found from frame lengths and CRCs
// alone.
func firstBad(b []byte) int {
	off := 0
	for len(b)-off >= frameHeaderSize {
		end := off + frameHeaderSize + int(binary.BigEndian.Uint32(b[off+1:])) + 4
		if end > len(b) {
			return off
		}
		crc := crc32.Update(crc32.ChecksumIEEE(b[off:off+1]), crc32.IEEETable, b[off+frameHeaderSize:end-4])
		if crc != binary.BigEndian.Uint32(b[end-4:end]) {
			return off
		}
		off = end
	}
	return off
}

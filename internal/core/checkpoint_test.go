package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sae/internal/record"
	"sae/internal/workload"
)

// goldenPairs is the dataset testdata/parent.ckpt holds: 45 UNF records
// (not a multiple of 8, nor of the TE's 16-record digest pass) with their
// keys folded into [0, 10) so that most keys repeat, in (key, id) order.
func goldenPairs(t *testing.T) []uint64 {
	t.Helper()
	pairs, err := workload.Keys(workload.UNF, 45, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		key, id := workload.Unpack(p)
		pairs[i] = uint64(key/1_000_000)<<32 | uint64(id)
	}
	slices.Sort(pairs)
	return pairs
}

// TestGoldenCheckpoint pins the checkpoint's bytes (SAECKP03):
// testdata/parent.ckpt was written as the first checkpoint of a fresh
// open that encoded every record of a []record.Record. A Checkpoint of a
// fresh open from packed pairs, of a reopen of the records from their
// base record, and of a reopen of that checkpoint write exactly those
// bytes, and opening the file gives back the same records, tokens and
// fresh-id watermark.
func TestGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	pairs := goldenPairs(t)
	recs := workload.Synthesize(pairs)
	checkpointOf := func(name string, ds *DurableSystem) {
		t.Helper()
		got, err := os.ReadFile(checkpointPath(ds.Dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			for i := range got {
				if i >= len(golden) || got[i] != golden[i] {
					t.Fatalf("%s: checkpoint differs from the golden one at byte %d of %d (golden %d bytes)", name, i, len(got), len(golden))
				}
			}
			t.Fatalf("%s: checkpoint is a %d-byte prefix of the %d-byte golden one", name, len(got), len(golden))
		}
	}

	fresh, err := OpenDurableFrom(t.TempDir(), len(pairs), workload.Reader(pairs), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointOf("fresh open of pairs", fresh)

	shim, err := OpenDurableSystem(t.TempDir(), recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := shim.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableSystem(shim.Dir, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointOf("Checkpoint after a reopen of the records from their base", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = OpenDurableSystem(shim.Dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointOf("Checkpoint after a reopen of that checkpoint", re)

	dir := t.TempDir()
	if err := os.WriteFile(checkpointPath(dir), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fromFile.Close()
	if got := fromFile.Owner.watermark(); got != record.ID(len(recs)+1) {
		t.Fatalf("watermark %d after opening the golden checkpoint, want %d", got, len(recs)+1)
	}
	want, err := NewSystem(recs)
	if err != nil {
		t.Fatal(err)
	}
	for lo := record.Key(0); lo < 10; lo += 3 {
		q := record.Range{Lo: lo, Hi: lo + 4}
		got, err := fromFile.Query(q)
		if err != nil || got.VerifyErr != nil {
			t.Fatalf("%v: %v / %v", q, err, got.VerifyErr)
		}
		ref, err := want.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Result) != len(ref.Result) || got.VT != ref.VT {
			t.Fatalf("%v: %d records, VT %v; want %d, %v", q, len(got.Result), got.VT, len(ref.Result), ref.VT)
		}
		for i := range got.Result {
			if !got.Result[i].Equal(&ref.Result[i]) {
				t.Fatalf("%v: record %d is %v, want %v", q, i, &got.Result[i], &ref.Result[i])
			}
		}
	}
}

// TestOpenFreshAllocBudget holds a primary's fresh open of its 50 000
// records to at most 1.75 bytes allocated per byte of live heap the open
// leaves behind: each record is written once, into its heap slot, and
// the index, catalog and checkpoint are read from there. A load that
// materializes the records first (2.4 bytes per live byte) fails it.
func TestOpenFreshAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the open's")
	}
	pairs := shard0Pairs(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := OpenDurableFrom(t.TempDir(), len(pairs), workload.Reader(pairs), 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	live := after.HeapAlloc - before.HeapAlloc
	t.Logf("open of %d records: %.1f MB allocated, %.1f MB live (%.2fx)", len(pairs), float64(allocated)/1e6, float64(live)/1e6, float64(allocated)/float64(live))
	if float64(allocated) > 1.75*float64(live) {
		t.Fatalf("open allocated %d bytes for %d live: over 1.75x", allocated, live)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshOpenWritesNoDump holds a primary's fresh open of its 50 000
// records to a base record: the directory holds at most 1 KiB besides an
// empty wal.log. The records themselves stay the caller's until the
// first Checkpoint.
func TestFreshOpenWritesNoDump(t *testing.T) {
	pairs := shard0Pairs(t)
	sys, err := OpenDurableFrom(t.TempDir(), len(pairs), workload.Reader(pairs), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	entries, err := os.ReadDir(sys.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var rest int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case e.Name() != "wal.log":
			rest += fi.Size()
		case fi.Size() != 0:
			t.Fatalf("a fresh open left %d bytes in wal.log", fi.Size())
		}
	}
	if rest > 1<<10 {
		t.Fatalf("a fresh open of %d records left %d bytes besides wal.log, want at most 1 KiB", len(pairs), rest)
	}
}

// TestLoadPathParity loads one dataset six ways — a fresh open
// streaming packed pairs, a fresh open of the []record.Record, a fresh
// open over a torn base.tmp (a fresh open killed before its base record
// was published), a reopen of the first from its base record after
// losing wal.log (killed after the base record, before the WAL), a
// reopen of that after its Checkpoint, and a replica's load of the
// first's snapshot bytes (LoadSnapshot, what replica.NewFromSnapshot runs) — for both
// distributions at sizes with no record, one record and a part-filled
// last page. Every range must return the same records and token from
// each, and each must count the same records and issue fresh ids from
// the same watermark. Before its first checkpoint the directory accepts
// only its own base dataset: a reopen with no records, with another
// seed's records or with one record more is refused and names the
// directory. (At n = 0 every dataset is the same empty one.)
func TestLoadPathParity(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		for _, n := range []int{0, 1, 1003} {
			pairs, err := workload.Keys(dist, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s n=%d", dist, n)
			fresh, err := OpenDurableFrom(t.TempDir(), n, workload.Reader(pairs), 0)
			if err != nil {
				t.Fatalf("%s: fresh open of pairs: %v", name, err)
			}
			var snap bytes.Buffer
			if err := fresh.WriteSnapshot(&snap); err != nil {
				t.Fatalf("%s: snapshot: %v", name, err)
			}
			if err := fresh.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(walPath(fresh.Dir)); err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				otherSeed, err := workload.Keys(dist, n, 4)
				if err != nil {
					t.Fatal(err)
				}
				oneMore, err := workload.Keys(dist, n+1, 3)
				if err != nil {
					t.Fatal(err)
				}
				for other, p := range map[string][]uint64{"no records": nil, "another seed": otherSeed, "one record more": oneMore} {
					re, err := OpenDurableFrom(fresh.Dir, len(p), workload.Reader(p), 0)
					if err == nil {
						re.Close()
						t.Fatalf("%s: reopened the base with %s", name, other)
					}
					if !strings.Contains(err.Error(), fresh.Dir) {
						t.Fatalf("%s: reopen with %s: %q does not name %s", name, other, err, fresh.Dir)
					}
				}
			}
			reopened, err := OpenDurableFrom(fresh.Dir, n, workload.Reader(pairs), 0)
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			shim, err := OpenDurableSystem(t.TempDir(), workload.Synthesize(pairs), 0)
			if err != nil {
				t.Fatalf("%s: fresh open of records: %v", name, err)
			}
			torn := t.TempDir()
			if err := os.WriteFile(basePath(torn)+".tmp", []byte(baseMagic), 0o644); err != nil {
				t.Fatal(err)
			}
			overTorn, err := OpenDurableFrom(torn, n, workload.Reader(pairs), 0)
			if err != nil {
				t.Fatalf("%s: fresh open over a torn base.tmp: %v", name, err)
			}
			rep, seq, err := LoadSnapshot(bytes.NewReader(snap.Bytes()), int64(snap.Len()))
			if err != nil {
				t.Fatalf("%s: replica load: %v", name, err)
			}
			if seq != 0 {
				t.Fatalf("%s: replica loaded at sequence %d, want 0", name, seq)
			}
			want := &System{Owner: shim.Owner, SP: shim.SP, TE: shim.TE}
			check := func(path string, sys *System) {
				t.Helper()
				if got, w := sys.SP.Count(), want.SP.Count(); got != w || got != n {
					t.Fatalf("%s, %s: catalog of %d ids, the records' open %d, want %d", name, path, got, w, n)
				}
				if got, w := sys.Owner.watermark(), want.Owner.watermark(); got != w || got != record.ID(n+1) {
					t.Fatalf("%s, %s: watermark %d, the records' open %d, want %d", name, path, got, w, n+1)
				}
				for lo := record.Key(0); lo < record.KeyDomain; lo += record.KeyDomain / 16 {
					q := record.Range{Lo: lo, Hi: lo + record.KeyDomain/8}
					got, err := sys.Query(q)
					if err != nil || got.VerifyErr != nil {
						t.Fatalf("%s, %s, %v: %v / %v", name, path, q, err, got.VerifyErr)
					}
					ref, err := want.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if got.VT != ref.VT || len(got.Result) != len(ref.Result) {
						t.Fatalf("%s, %s, %v: %d records, VT %v; want %d, %v", name, path, q, len(got.Result), got.VT, len(ref.Result), ref.VT)
					}
					for i := range got.Result {
						if !got.Result[i].Equal(&ref.Result[i]) {
							t.Fatalf("%s, %s, %v: record %d is %v, want %v", name, path, q, i, &got.Result[i], &ref.Result[i])
						}
					}
				}
			}
			check("fresh open of pairs", &System{Owner: fresh.Owner, SP: fresh.SP, TE: fresh.TE})
			check("fresh open over a torn base.tmp", &System{Owner: overTorn.Owner, SP: overTorn.SP, TE: overTorn.TE})
			check("reopen from the base record", &System{Owner: reopened.Owner, SP: reopened.SP, TE: reopened.TE})
			check("replica", rep)

			if err := reopened.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", name, err)
			}
			if _, err := os.Stat(basePath(fresh.Dir)); !os.IsNotExist(err) {
				t.Fatalf("%s: the base record outlived the checkpoint (stat: %v)", name, err)
			}
			reopened.Close()
			fromCkpt, err := OpenDurableSystem(fresh.Dir, nil, 0)
			if err != nil {
				t.Fatalf("%s: reopen of the checkpoint: %v", name, err)
			}
			check("reopen of the checkpoint", &System{Owner: fromCkpt.Owner, SP: fromCkpt.SP, TE: fromCkpt.TE})
			fromCkpt.Close()
			overTorn.Close()
			shim.Close()
		}
	}
}

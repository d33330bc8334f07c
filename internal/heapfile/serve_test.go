package heapfile

import (
	"errors"
	"testing"

	"sae/internal/bufpool"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// TestServeManyParity proves the record-pointer shim emits exactly the
// records GetManyCtx returns, in order, with identical page-access
// accounting, and that attaching a cache (UseCache is a no-op) changes
// neither.
func TestServeManyParity(t *testing.T) {
	recs := buildRecords(1000)
	counting := pagestore.NewCounting(pagestore.NewMem())
	f, rids, err := Build(counting, recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// A mixed access pattern: one long clustered run, a revisit, and a
	// single straggler.
	pattern := append(append([]RID{}, rids[8:960]...), rids[16], rids[999])
	getCtx := exec.NewContext()
	want, err := f.GetManyCtx(getCtx, pattern)
	if err != nil {
		t.Fatalf("GetManyCtx: %v", err)
	}
	modes := []struct {
		name  string
		cache *bufpool.Cache
	}{
		{"uncached", nil},
		{"charge-all", new(bufpool.Cache)},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			f.UseCache(mode.cache)
			serveCtx := exec.NewContext()
			var got []record.Record
			err := f.ServeManyCtx(serveCtx, pattern, func(r *record.Record) error {
				got = append(got, *r) // copy: the scratch record is reused
				return nil
			})
			if err != nil {
				t.Fatalf("ServeManyCtx: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("served %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(&want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			if g, w := serveCtx.Stats(), getCtx.Stats(); g != w {
				t.Fatalf("serve accesses %+v != get accesses %+v", g, w)
			}
		})
	}
}

// TestServeManyEmitError proves an emit error stops the serve and
// propagates.
func TestServeManyEmitError(t *testing.T) {
	recs := buildRecords(40)
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	boom := errors.New("boom")
	n := 0
	err = f.ServeManyCtx(nil, rids, func(*record.Record) error {
		n++
		if n == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 17 {
		t.Fatalf("emitted %d records before stopping, want 17", n)
	}
}

// TestServeManyTombstone proves serving a deleted slot fails like GetMany
// does, after the live records before it.
func TestServeManyTombstone(t *testing.T) {
	recs := buildRecords(24)
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.Delete(rids[10]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	n := 0
	err = f.ServeManyCtx(nil, rids, func(*record.Record) error { n++; return nil })
	if !errors.Is(err, ErrDeleted) {
		t.Fatalf("err = %v, want ErrDeleted", err)
	}
	if n != 10 {
		t.Fatalf("emitted %d records before the tombstone, want 10", n)
	}
}

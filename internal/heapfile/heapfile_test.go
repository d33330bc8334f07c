package heapfile

import (
	"errors"
	"sort"
	"testing"

	"sae/internal/pagestore"
	"sae/internal/record"
)

func buildRecords(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key(i*13%record.KeyDomain))
	}
	sort.Slice(recs, func(i, j int) bool { return record.SortByKey(recs[i], recs[j]) < 0 })
	return recs
}

func TestBuildAndGet(t *testing.T) {
	recs := buildRecords(25)
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(rids) != len(recs) {
		t.Fatalf("got %d rids, want %d", len(rids), len(recs))
	}
	if f.NumRecords() != 25 {
		t.Fatalf("NumRecords = %d, want 25", f.NumRecords())
	}
	wantPages := (25 + RecordsPerPage - 1) / RecordsPerPage
	if f.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", f.NumPages(), wantPages)
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !got.Equal(&recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestGetManyClusteredAccessCount(t *testing.T) {
	recs := buildRecords(64) // exactly 8 pages
	counting := pagestore.NewCounting(pagestore.NewMem())
	f, rids, err := Build(counting, recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	counting.Reset()
	got, err := f.GetMany(rids[8:40]) // records 8..39 → pages 1..4
	if err != nil {
		t.Fatalf("GetMany: %v", err)
	}
	if len(got) != 32 {
		t.Fatalf("got %d records, want 32", len(got))
	}
	if reads := counting.Stats().Reads; reads != 4 {
		t.Fatalf("clustered GetMany read %d pages, want 4", reads)
	}
	for i, r := range got {
		if !r.Equal(&recs[8+i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestAppendExtendsTail(t *testing.T) {
	recs := buildRecords(10) // page 0 full (8), page 1 holds 2
	f, _, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := record.Synthesize(999, 5)
	rid, err := f.Append(r)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if f.NumPages() != 2 {
		t.Fatalf("Append should fill the tail page, NumPages = %d", f.NumPages())
	}
	if rid.Slot != 2 {
		t.Fatalf("appended slot = %d, want 2", rid.Slot)
	}
	got, err := f.Get(rid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !got.Equal(&r) {
		t.Fatal("appended record mismatch")
	}
}

func TestAppendAllocatesWhenFull(t *testing.T) {
	recs := buildRecords(8) // exactly one full page
	f, _, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rid, err := f.Append(record.Synthesize(100, 1))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", f.NumPages())
	}
	if rid.Slot != 0 {
		t.Fatalf("slot on fresh page = %d, want 0", rid.Slot)
	}
}

func TestAppendToEmptyFile(t *testing.T) {
	f := New(pagestore.NewMem())
	rid, err := f.Append(record.Synthesize(1, 1))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if f.NumRecords() != 1 || f.NumPages() != 1 {
		t.Fatalf("counts = %d recs / %d pages, want 1/1", f.NumRecords(), f.NumPages())
	}
	if _, err := f.Get(rid); err != nil {
		t.Fatalf("Get: %v", err)
	}
}

func TestDelete(t *testing.T) {
	recs := buildRecords(5)
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.Delete(rids[2]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if f.NumRecords() != 4 {
		t.Fatalf("NumRecords = %d, want 4", f.NumRecords())
	}
	if _, err := f.Get(rids[2]); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get(deleted) error = %v, want ErrDeleted", err)
	}
	if err := f.Delete(rids[2]); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double Delete error = %v, want ErrDeleted", err)
	}
	// Neighbours untouched.
	if _, err := f.Get(rids[1]); err != nil {
		t.Fatalf("Get(neighbour): %v", err)
	}
}

func TestGetErrors(t *testing.T) {
	recs := buildRecords(3)
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := f.Get(RID{Page: rids[0].Page, Slot: 7}); !errors.Is(err, ErrBadRID) {
		t.Fatalf("Get(bad slot) error = %v, want ErrBadRID", err)
	}
	if _, err := f.Get(RID{Page: 999, Slot: 0}); err == nil {
		t.Fatal("Get on unknown page succeeded")
	}
}

func TestBytes(t *testing.T) {
	recs := buildRecords(9) // two pages
	f, _, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := f.Bytes(); got != 2*pagestore.PageSize {
		t.Fatalf("Bytes = %d, want %d", got, 2*pagestore.PageSize)
	}
}

func TestBuildEmpty(t *testing.T) {
	f, rids, err := Build(pagestore.NewMem(), nil)
	if err != nil {
		t.Fatalf("Build(nil): %v", err)
	}
	if len(rids) != 0 || f.NumRecords() != 0 || f.NumPages() != 0 {
		t.Fatal("empty build must produce an empty file")
	}
}

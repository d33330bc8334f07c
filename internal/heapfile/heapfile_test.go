package heapfile

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"testing"

	"sae/internal/exec"
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

// TestUpdateAccessCounts: an append to the tail page and a delete each
// cost one read and one write of the raw page; an append that opens a
// page costs one allocation and one write.
func TestUpdateAccessCounts(t *testing.T) {
	counting := pagestore.NewCounting(pagestore.NewMem())
	f, rids, err := Build(counting, buildRecords(10))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, c := range []struct {
		name string
		op   func(*exec.Context) error
		want pagestore.Stats
	}{
		{"append to tail", func(ctx *exec.Context) error {
			_, err := f.AppendCtx(ctx, encoded(50, 5))
			return err
		}, pagestore.Stats{Reads: 1, Writes: 1}},
		{"delete", func(ctx *exec.Context) error { return f.DeleteCtx(ctx, rids[3]) },
			pagestore.Stats{Reads: 1, Writes: 1}},
	} {
		counting.Reset()
		ctx := exec.NewContext()
		if err := c.op(ctx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ctx.Stats(); got != c.want || counting.Stats() != c.want {
			t.Fatalf("%s: ctx %+v, store %+v, want %+v", c.name, got, counting.Stats(), c.want)
		}
	}
	for i := 0; i < 5; i++ { // fill the tail page: 11 + 5 = 16 records
		if _, err := f.Append(record.Synthesize(record.ID(60+i), 6)); err != nil {
			t.Fatal(err)
		}
	}
	counting.Reset()
	ctx := exec.NewContext()
	if _, err := f.AppendCtx(ctx, encoded(70, 7)); err != nil {
		t.Fatal(err)
	}
	if want := (pagestore.Stats{Reads: 1, Writes: 1, Allocs: 1}); ctx.Stats() != want {
		t.Fatalf("append opening a page: ctx %+v, want %+v", ctx.Stats(), want)
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

// encoded returns the canonical encoding of record.Synthesize(id, key).
func encoded(id record.ID, key record.Key) []byte {
	b := make([]byte, record.Size)
	record.SynthesizeInto(b, id, key)
	return b
}

// TestRecordsStreamsLiveSlots: Records streams the live records' bytes in
// page order, skipping tombstoned slots and a part-filled last page.
func TestRecordsStreamsLiveSlots(t *testing.T) {
	recs := make([]record.Record, 21)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key(i))
	}
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range recs {
		if i == 0 || i == 7 || i == 8 || i == 20 {
			if err := f.Delete(rids[i]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want = recs[i].AppendBinary(want)
	}
	got, err := io.ReadAll(f.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes, want the %d bytes of the live records", len(got), len(want))
	}
}

// TestDeleteFreesEmptiedFullPage: the delete that empties a full page
// frees it, so the file stops counting and streaming it and the next
// tail page takes its id; a part-filled or part-live page is kept.
func TestDeleteFreesEmptiedFullPage(t *testing.T) {
	recs := make([]record.Record, 20) // pages of 8, 8 and 4
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key(i))
	}
	store := pagestore.NewMem()
	f, rids, err := Build(store, recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19} {
		if err := f.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumPages() != 3 || store.NumPages() != 3 {
		t.Fatalf("pages = %d in the file, %d in the store; want 3 before any page is wholly dead", f.NumPages(), store.NumPages())
	}
	freed := rids[15].Page
	if err := f.Delete(rids[15]); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 2 || store.NumPages() != 2 || f.Bytes() != 2*pagestore.PageSize {
		t.Fatalf("pages = %d in the file, %d in the store; want 2 once the middle page is wholly dead", f.NumPages(), store.NumPages())
	}
	if _, err := f.Get(rids[15]); !errors.Is(err, pagestore.ErrBadPageID) {
		t.Fatalf("Get on a freed page: err = %v, want ErrBadPageID", err)
	}
	got, err := io.ReadAll(f.Records())
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 8; i++ {
		want = recs[i].AppendBinary(want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes, want the %d bytes of the first page", len(got), len(want))
	}
	// Filling the part-filled tail appends to it; the page after it
	// reuses the freed id.
	var rid RID
	for i := 0; i < 5; i++ {
		if rid, err = f.Append(record.Synthesize(record.ID(100+i), record.Key(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if rid != (RID{Page: freed, Slot: 0}) || f.NumPages() != 3 {
		t.Fatalf("the fifth append landed at %v with %d pages; want slot 0 of freed page %d, 3 pages", rid, f.NumPages(), freed)
	}
	if r, err := f.Get(rid); err != nil || r.ID != 104 {
		t.Fatalf("Get(%v) = id %d, %v; want id 104", rid, r.ID, err)
	}
}

// Package heapfile stores the outsourced relation R as 500-byte records in
// 4096-byte pages — the "dataset file" both outsourcing models scan when
// retrieving query results.
//
// BuildFrom lays records out in key order (a clustered file), so a range
// query's result occupies a contiguous run of pages; later insertions
// append at the tail, as in a conventional heap. Deletions tombstone their
// slot, and a slot is never reused. A delete that leaves a full page with
// no live slot frees the page instead: the store recycles it for a later
// tail page, so a file under churn holds only the pages that still carry
// a live record or may yet take one. A page with some live slots keeps its
// dead ones.
//
// Each slot holds its record in the canonical 500-byte wire encoding, back
// to back after a 3-byte page header, so a run of consecutive live slots
// is already the bytes a response carries. The file keeps no decoded form
// and sits under no cache: every page access
// borrows the store's own page bytes (pagestore.Store.Borrow) and is
// charged as one read, and an update rewrites the raw page.
package heapfile

import (
	"errors"
	"fmt"
	"io"

	"sae/internal/bufpool"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// RecordsPerPage is how many 500-byte records fit in a 4096-byte page after
// the 3-byte page header (1-byte slot count, a zero byte, 1-byte occupancy
// bitmap).
const RecordsPerPage = 8

const headerSize = 3

// RID locates a record: page id plus slot index within the page.
type RID struct {
	Page pagestore.PageID
	Slot uint16
}

// InvalidRID is the zero-ish sentinel for "no record".
var InvalidRID = RID{Page: pagestore.InvalidPage}

// Errors returned by File operations.
var (
	ErrBadRID     = errors.New("heapfile: rid out of range")
	ErrDeleted    = errors.New("heapfile: record was deleted")
	ErrEmptySlot  = errors.New("heapfile: slot is empty")
	ErrPageFormat = errors.New("heapfile: malformed page")
)

// File is a record file over a page store.
//
// Its pages form a list in allocation (and key, after Build) order,
// linked through next and prev, which are indexed by page id: a freed
// page leaves the list in O(1), and the store may hand its id to a later
// tail page.
type File struct {
	store      pagestore.Store
	head, tail pagestore.PageID
	next, prev []pagestore.PageID
	pages      int // pages on the list
	live       int // live (non-deleted) record count
}

// New returns an empty heap file on store.
func New(store pagestore.Store) *File {
	return &File{store: store, head: pagestore.InvalidPage, tail: pagestore.InvalidPage}
}

// link appends page id to the tail of the page list.
func (f *File) link(id pagestore.PageID) {
	for int(id) >= len(f.next) {
		f.next = append(f.next, pagestore.InvalidPage)
		f.prev = append(f.prev, pagestore.InvalidPage)
	}
	f.next[id], f.prev[id] = pagestore.InvalidPage, f.tail
	if f.tail == pagestore.InvalidPage {
		f.head = id
	} else {
		f.next[f.tail] = id
	}
	f.tail = id
	f.pages++
}

// unlink takes page id off the page list.
func (f *File) unlink(id pagestore.PageID) {
	p, n := f.prev[id], f.next[id]
	if p == pagestore.InvalidPage {
		f.head = n
	} else {
		f.next[p] = n
	}
	if n == pagestore.InvalidPage {
		f.tail = p
	} else {
		f.prev[n] = p
	}
	f.pages--
}

// UseCache does nothing: heap pages are served from their page bytes. It
// is kept for the bench/ harness (see bufpool.Cache).
func (f *File) UseCache(*bufpool.Cache) {}

// Build creates a clustered file holding records in the given order (callers
// sort by key first) and returns the RID of each record, aligned with the
// input slice: BuildFrom over the records' encodings.
func Build(store pagestore.Store, records []record.Record) (*File, []RID, error) {
	rids := make([]RID, 0, len(records))
	f, err := BuildFrom(store, len(records), record.ReaderOf(records), func(rid RID, _ []byte) error {
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return f, rids, nil
}

// BuildFrom creates a clustered file holding the n records whose
// canonical encodings src streams back to back, in that order — the data
// owner's initial bulk transfer to the SP. Each page is filled in place:
// its slots are read straight from src, each record is handed to each
// (with its RID and its bytes on the page) once the page is full, and the
// page is allocated and written through the store once. An error from
// each, or fewer than n records in src, fails the build.
func BuildFrom(store pagestore.Store, n int, src io.Reader, each func(rid RID, enc []byte) error) (*File, error) {
	f := New(store)
	buf := bufpool.GetPage()
	defer bufpool.PutPage(buf)
	for start := 0; start < n; start += RecordsPerPage {
		k := min(RecordsPerPage, n-start)
		id, err := f.allocate(nil)
		if err != nil {
			return nil, err
		}
		clear(buf[:headerSize])
		clear(buf[slotOffset(k):])
		if _, err := io.ReadFull(src, buf[headerSize:slotOffset(k)]); err != nil {
			return nil, fmt.Errorf("heapfile: reading records %d..%d of %d: %w", start, start+k, n, err)
		}
		buf[0], buf[2] = byte(k), byte(1<<k-1)
		for s := 0; s < k; s++ {
			off := slotOffset(s)
			if err := each(RID{Page: id, Slot: uint16(s)}, buf[off:off+record.Size]); err != nil {
				return nil, err
			}
		}
		if err := f.write(nil, id, buf[:]); err != nil {
			return nil, err
		}
		f.link(id)
	}
	f.live = n
	return f, nil
}

// Records streams the canonical encodings of the file's live records in
// page order — key order for a file BuildFrom filled — borrowing each
// page as the stream reaches it. The file must not change while the
// stream is read.
func (f *File) Records() *record.Reader {
	var page []byte
	id, s := pagestore.InvalidPage, uint16(RecordsPerPage)
	return record.NewReader(f.live, func(_ int, dst []byte) error {
		for ; ; s++ {
			if s == RecordsPerPage {
				if id == pagestore.InvalidPage {
					id = f.head
				} else {
					id = f.next[id]
				}
				if id == pagestore.InvalidPage {
					return ErrBadRID
				}
				var err error
				if page, err = f.borrow(nil, id); err != nil {
					return err
				}
				s = 0
			}
			if live(page, s) {
				copy(dst, page[slotOffset(int(s)):slotOffset(int(s)+1)])
				s++
				return nil
			}
		}
	})
}

// putSlot copies enc, one record's canonical encoding, into slot s of a
// raw page and marks it live. Slots fill in order, so s+1 becomes the
// page's slot count.
func putSlot(page []byte, s int, enc []byte) {
	off := slotOffset(s)
	copy(page[off:off+record.Size], enc[:record.Size])
	page[0] = byte(s + 1)
	page[2] |= 1 << uint(s)
}

func slotOffset(s int) int { return headerSize + s*record.Size }

// live reports whether slot s of a raw page holds a non-tombstoned record.
func live(page []byte, s uint16) bool {
	return s < RecordsPerPage && int(s) < int(page[0]) && page[2]&(1<<s) != 0
}

// slotErr explains why rid's slot cannot be read from its raw page.
func slotErr(page []byte, rid RID) error {
	if rid.Slot >= RecordsPerPage || int(rid.Slot) >= int(page[0]) {
		return fmt.Errorf("%w: %v", ErrBadRID, rid)
	}
	return fmt.Errorf("%w: %v", ErrDeleted, rid)
}

// slot returns the encoding of rid's record on its raw page.
func slot(page []byte, rid RID) ([]byte, error) {
	if !live(page, rid.Slot) {
		return nil, slotErr(page, rid)
	}
	off := slotOffset(int(rid.Slot))
	return page[off : off+record.Size], nil
}

// borrow lends page id's bytes and charges ctx one read. The bytes are
// valid while the caller's structure lock keeps writers out.
func (f *File) borrow(ctx *exec.Context, id pagestore.PageID) ([]byte, error) {
	page, err := f.store.Borrow(id)
	if err != nil {
		return nil, fmt.Errorf("heapfile: %w", err)
	}
	ctx.AccountRead()
	return page, nil
}

func (f *File) read(ctx *exec.Context, id pagestore.PageID, buf []byte) error {
	if err := f.store.Read(id, buf); err != nil {
		return fmt.Errorf("heapfile: %w", err)
	}
	ctx.AccountRead()
	return nil
}

func (f *File) write(ctx *exec.Context, id pagestore.PageID, buf []byte) error {
	if err := f.store.Write(id, buf); err != nil {
		return fmt.Errorf("heapfile: writing page %d: %w", id, err)
	}
	ctx.AccountWrite()
	return nil
}

func (f *File) allocate(ctx *exec.Context) (pagestore.PageID, error) {
	id, err := f.store.Allocate()
	if err != nil {
		return id, fmt.Errorf("heapfile: allocating page: %w", err)
	}
	ctx.AccountAlloc()
	return id, nil
}

// Get fetches a single record with no request context; see GetCtx.
func (f *File) Get(rid RID) (record.Record, error) { return f.GetCtx(nil, rid) }

// GetCtx fetches a single record, costing one page access charged to ctx.
func (f *File) GetCtx(ctx *exec.Context, rid RID) (record.Record, error) {
	page, err := f.borrow(ctx, rid.Page)
	if err != nil {
		return record.Record{}, err
	}
	enc, err := slot(page, rid)
	if err != nil {
		return record.Record{}, err
	}
	return record.Unmarshal(enc)
}

// GetMany fetches records for a list of RIDs with no request context; see
// GetManyCtx.
func (f *File) GetMany(rids []RID) ([]record.Record, error) {
	return f.GetManyCtx(nil, rids)
}

// GetManyCtx fetches records for a list of RIDs, reading each distinct page
// once per contiguous run. For a clustered file and key-ordered RIDs (the
// range-query case) this touches ceil(|RS| / RecordsPerPage) pages, which
// is exactly the paper's "scan the dataset file" cost.
func (f *File) GetManyCtx(ctx *exec.Context, rids []RID) ([]record.Record, error) {
	out := make([]record.Record, 0, len(rids))
	var page []byte
	curPage := pagestore.InvalidPage
	for _, rid := range rids {
		if rid.Page != curPage {
			var err error
			if page, err = f.borrow(ctx, rid.Page); err != nil {
				return nil, err
			}
			curPage = rid.Page
		}
		enc, err := slot(page, rid)
		if err != nil {
			return nil, err
		}
		r, _ := record.Unmarshal(enc)
		out = append(out, r)
	}
	return out, nil
}

// ServeManyCtx streams the records for rids to emit, each decoded into one
// scratch record that emit must not retain: ServeBurstCtx with one run.
func (f *File) ServeManyCtx(ctx *exec.Context, rids []RID, emit func(*record.Record) error) error {
	var r record.Record
	return f.ServeBurstCtx([]*exec.Context{ctx}, [][]RID{rids}, func(_ int, enc []byte) error {
		return record.EachEncoded(enc, &r, emit)
	})
}

// ServeBurstCtx is the heap file's one streaming fetch. It serves a burst
// of queries — runs[qi] is query qi's key-ordered RID list, ctxs[qi] its
// request context — and hands emit(qi, enc) each maximal stretch of
// consecutive live slots on one page as its k × record.Size canonical
// bytes, borrowed from the page itself. A clustered range is one emit per
// page. The borrow rule is strict: emit must copy what it keeps before
// it returns, and the caller's structure lock must keep writers (who
// rewrite pages in place) out for the whole call.
//
// Each run borrows exactly the pages GetManyCtx reads, in its order, with
// the same charges to its own context (TestServeBurstCtxParity), so the
// paper's node-access figures do not depend on which fetch served them. A
// RID naming a tombstoned or missing slot fails the burst with GetManyCtx's
// error, after the stretch before it has been emitted.
func (f *File) ServeBurstCtx(ctxs []*exec.Context, runs [][]RID, emit func(qi int, enc []byte) error) error {
	for qi, rids := range runs {
		var page []byte
		curPage := pagestore.InvalidPage
		for i := 0; i < len(rids); {
			rid := rids[i]
			if rid.Page != curPage {
				var err error
				if page, err = f.borrow(ctxs[qi], rid.Page); err != nil {
					return err
				}
				curPage = rid.Page
			}
			if !live(page, rid.Slot) {
				return slotErr(page, rid)
			}
			end := rid.Slot + 1
			i++
			for i < len(rids) && rids[i].Page == curPage && rids[i].Slot == end && live(page, end) {
				end++
				i++
			}
			if err := emit(qi, page[slotOffset(int(rid.Slot)):slotOffset(int(end))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append adds a record with no request context; see AppendCtx.
func (f *File) Append(r record.Record) (RID, error) { return f.AppendCtx(nil, r.Marshal()) }

// AppendCtx adds a record, given as its canonical encoding enc, at the
// file's tail, extending the last page (one read, one write) or
// allocating a new one, and returns its RID. Used for post-build updates.
func (f *File) AppendCtx(ctx *exec.Context, enc []byte) (RID, error) {
	buf := bufpool.GetPage()
	defer bufpool.PutPage(buf)
	if last := f.tail; last != pagestore.InvalidPage {
		if err := f.read(ctx, last, buf[:]); err != nil {
			return InvalidRID, err
		}
		if cnt := int(buf[0]); cnt < RecordsPerPage {
			putSlot(buf[:], cnt, enc)
			if err := f.write(ctx, last, buf[:]); err != nil {
				return InvalidRID, err
			}
			f.live++
			return RID{Page: last, Slot: uint16(cnt)}, nil
		}
	}
	id, err := f.allocate(ctx)
	if err != nil {
		return InvalidRID, err
	}
	clear(buf[:])
	putSlot(buf[:], 0, enc)
	if err := f.write(ctx, id, buf[:]); err != nil {
		return InvalidRID, err
	}
	f.link(id)
	f.live++
	return RID{Page: id, Slot: 0}, nil
}

// Delete tombstones a record with no request context; see DeleteCtx.
func (f *File) Delete(rid RID) error { return f.DeleteCtx(nil, rid) }

// DeleteCtx tombstones a record (one read, one write). The slot is not
// reused; range scans skip it. If the page is full and rid was its last
// live slot, the page is then freed: it leaves the file's page list and
// goes back to the store, which may hand it out as a later tail page. The
// caller must hold no other RID on it (its catalog and index no longer
// do) and must keep readers of its bytes out, as for any write.
func (f *File) DeleteCtx(ctx *exec.Context, rid RID) error {
	buf := bufpool.GetPage()
	defer bufpool.PutPage(buf)
	if err := f.read(ctx, rid.Page, buf[:]); err != nil {
		return err
	}
	if !live(buf[:], rid.Slot) {
		return slotErr(buf[:], rid)
	}
	buf[2] &^= 1 << rid.Slot
	if err := f.write(ctx, rid.Page, buf[:]); err != nil {
		return err
	}
	f.live--
	if buf[0] == RecordsPerPage && buf[2] == 0 {
		return f.free(ctx, rid.Page)
	}
	return nil
}

// free takes a wholly dead page off the list and returns it to the store.
func (f *File) free(ctx *exec.Context, id pagestore.PageID) error {
	f.unlink(id)
	if err := f.store.Free(id); err != nil {
		return fmt.Errorf("heapfile: freeing page %d: %w", id, err)
	}
	ctx.AccountFree()
	return nil
}

// NumRecords returns the number of live records.
func (f *File) NumRecords() int { return f.live }

// NumPages returns the number of data pages in the file; freed pages are
// not counted.
func (f *File) NumPages() int { return f.pages }

// Bytes returns the storage footprint of the file in bytes.
func (f *File) Bytes() int64 { return int64(f.pages) * pagestore.PageSize }

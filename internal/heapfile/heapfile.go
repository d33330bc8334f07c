// Package heapfile stores the outsourced relation R as 500-byte records in
// 4096-byte pages — the "dataset file" both outsourcing models scan when
// retrieving query results.
//
// Build lays records out in key order (a clustered file), so a range query's
// result occupies a contiguous run of pages; later insertions append at the
// tail, as in a conventional heap. Deletions tombstone their slot.
//
// All page access goes through internal/bufpool: pages are decoded once
// into a slice of records and, when a cache is attached with UseCache,
// served from the decoded form on repeated reads.
package heapfile

import (
	"errors"
	"fmt"

	"sae/internal/bufpool"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// RecordsPerPage is how many 500-byte records fit in a 4096-byte page after
// the 3-byte page header (2-byte slot count + 1-byte occupancy bitmap).
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
type File struct {
	io    *bufpool.IO
	pages []pagestore.PageID // in allocation (and key, after Build) order
	live  int                // live (non-deleted) record count
}

// page is the decoded in-memory form of one heap page: the occupancy
// bitmap plus every written slot's record.
type page struct {
	occ  byte
	recs []record.Record
}

// live reports whether slot s holds a non-tombstoned record.
func (p *page) live(s uint16) bool {
	return s < RecordsPerPage && p.occ&(1<<uint(s)) != 0
}

// slotRef returns a pointer to the record at rid, enforcing bounds and
// tombstones. The pointer aliases the (possibly cached) decoded page —
// callers copy, never mutate.
func (p *page) slotRef(rid RID) (*record.Record, error) {
	if int(rid.Slot) >= len(p.recs) {
		return nil, fmt.Errorf("%w: %v", ErrBadRID, rid)
	}
	if !p.live(rid.Slot) {
		return nil, fmt.Errorf("%w: %v", ErrDeleted, rid)
	}
	return &p.recs[rid.Slot], nil
}

// slot fetches the record at rid by value.
func (p *page) slot(rid RID) (record.Record, error) {
	r, err := p.slotRef(rid)
	if err != nil {
		return record.Record{}, err
	}
	return *r, nil
}

// New returns an empty heap file on store.
func New(store pagestore.Store) *File {
	return &File{io: bufpool.NewIO(store, nil)}
}

// UseCache attaches a decoded-page cache to the file's read/write path
// (nil detaches).
func (f *File) UseCache(c *bufpool.Cache) { f.io.SetCache(c) }

// Build creates a clustered file holding records in the given order (callers
// sort by key first) and returns the RID of each record, aligned with the
// input slice. It is the data owner's initial bulk transfer to the SP.
// The build itself runs uncached; attach a cache afterwards with UseCache.
func Build(store pagestore.Store, records []record.Record) (*File, []RID, error) {
	f := New(store)
	rids := make([]RID, 0, len(records))
	for start := 0; start < len(records); start += RecordsPerPage {
		end := start + RecordsPerPage
		if end > len(records) {
			end = len(records)
		}
		id, err := f.io.Allocate(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("heapfile: allocating page: %w", err)
		}
		n := end - start
		p := &page{occ: byte(1<<uint(n)) - 1, recs: records[start:end]}
		if err := f.writePage(nil, id, p); err != nil {
			return nil, nil, err
		}
		f.pages = append(f.pages, id)
		for s := 0; s < n; s++ {
			rids = append(rids, RID{Page: id, Slot: uint16(s)})
		}
	}
	f.live = len(records)
	return f, rids, nil
}

// encodePage serializes a decoded page: count, occupancy bitmap, records.
func encodePage(buf []byte, p *page) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = byte(len(p.recs))
	buf[1] = 0
	buf[2] = p.occ
	for s := range p.recs {
		off := headerSize + s*record.Size
		p.recs[s].AppendBinary(buf[off : off : off+record.Size])
	}
}

// decodeSlot unmarshals a single slot from a raw page — the fast path for
// uncached reads, which have no reason to materialize all eight records.
func decodeSlot(buf []byte, rid RID) (record.Record, error) {
	if int(rid.Slot) >= int(buf[0]) {
		return record.Record{}, fmt.Errorf("%w: %v", ErrBadRID, rid)
	}
	if rid.Slot >= RecordsPerPage || buf[2]&(1<<uint(rid.Slot)) == 0 {
		return record.Record{}, fmt.Errorf("%w: %v", ErrDeleted, rid)
	}
	off := headerSize + int(rid.Slot)*record.Size
	return record.Unmarshal(buf[off : off+record.Size])
}

// decodePage parses a raw page into its record slice. Tombstoned slots are
// decoded too (their bytes remain valid); liveness is the occ bitmap's job.
func decodePage(buf []byte) *page {
	count := int(buf[0])
	if count > RecordsPerPage {
		count = RecordsPerPage
	}
	p := &page{occ: buf[2], recs: make([]record.Record, count)}
	off := headerSize
	for i := 0; i < count; i++ {
		p.recs[i], _ = record.Unmarshal(buf[off : off+record.Size])
		off += record.Size
	}
	return p
}

func (f *File) readPage(ctx *exec.Context, id pagestore.PageID) (*page, error) {
	p, err := bufpool.ReadNode(f.io, ctx, id, decodePage)
	if err != nil {
		return nil, fmt.Errorf("heapfile: %w", err)
	}
	return p, nil
}

func (f *File) writePage(ctx *exec.Context, id pagestore.PageID, p *page) error {
	if err := bufpool.WriteNode(f.io, ctx, id, p, encodePage); err != nil {
		return fmt.Errorf("heapfile: writing page %d: %w", id, err)
	}
	return nil
}

// Get fetches a single record with no request context; see GetCtx.
func (f *File) Get(rid RID) (record.Record, error) { return f.GetCtx(nil, rid) }

// GetCtx fetches a single record, costing one page access charged to ctx.
// Without a cache only the requested slot is unmarshalled, matching the
// pre-bufpool cost exactly (the uncached mode is the before/after
// benchmarks' baseline).
func (f *File) GetCtx(ctx *exec.Context, rid RID) (record.Record, error) {
	if f.io.Cache() == nil {
		buf := bufpool.GetPage()
		defer bufpool.PutPage(buf)
		if err := f.io.ReadRaw(ctx, rid.Page, buf[:]); err != nil {
			return record.Record{}, fmt.Errorf("heapfile: %w", err)
		}
		return decodeSlot(buf[:], rid)
	}
	p, err := f.readPage(ctx, rid.Page)
	if err != nil {
		return record.Record{}, err
	}
	return p.slot(rid)
}

// GetMany fetches records for a list of RIDs with no request context; see
// GetManyCtx.
func (f *File) GetMany(rids []RID) ([]record.Record, error) {
	return f.GetManyCtx(nil, rids)
}

// GetManyCtx fetches records for a list of RIDs, reading each distinct page
// at most once per contiguous run. For a clustered file and key-ordered
// RIDs (the range-query case) this touches ceil(|RS| / RecordsPerPage)
// pages, which is exactly the paper's "scan the dataset file" cost.
//
// A run that advances past more than exec.ScanThreshold distinct pages
// turns on the context's scan hint for the remainder, so a long scan's
// fills bypass LRU admission in the decoded-node cache. Distinct pages are
// counted as strictly increasing page ids — exact for the clustered,
// key-ordered access pattern range queries produce; revisits and
// back-and-forth patterns never count, so they cannot falsely trip the
// hint.
func (f *File) GetManyCtx(ctx *exec.Context, rids []RID) ([]record.Record, error) {
	if f.io.Cache() == nil {
		return f.getManyUncached(ctx, rids)
	}
	out := make([]record.Record, 0, len(rids))
	var cur *page
	curPage := pagestore.InvalidPage
	scan := exec.TrackScan(ctx)
	defer scan.End()
	maxPage := pagestore.PageID(0)
	for _, rid := range rids {
		if rid.Page != curPage {
			if rid.Page >= maxPage {
				maxPage = rid.Page + 1
				scan.NotePage()
			}
			p, err := f.readPage(ctx, rid.Page)
			if err != nil {
				return nil, err
			}
			cur, curPage = p, rid.Page
		}
		r, err := cur.slotRef(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
	}
	return out, nil
}

// ServeManyCtx streams the records for rids to emit without materializing
// a result slice: ServeBurstCtx with one run.
func (f *File) ServeManyCtx(ctx *exec.Context, rids []RID, emit func(*record.Record) error) error {
	return f.ServeBurstCtx([]*exec.Context{ctx}, [][]RID{rids}, func(_ int, r *record.Record) error { return emit(r) })
}

// ServeBurstCtx is the heap file's one streaming fetch. It serves a burst
// of queries — runs[qi] is query qi's key-ordered RID list, ctxs[qi] its
// request context — and hands emit(qi, r) each record as a pointer
// borrowed from its page instead of materializing a result slice. The
// borrow rule is strict: emit must not retain the pointer past its
// return. The encode into the wire frame happens inside the callback,
// under the structure's read lock, which keeps writers (who mutate
// decoded pages in place under the write lock) out of the borrow window.
//
// Each run makes exactly GetManyCtx's page lookups, in its order, with
// the same charges to its own context, the same scan-hint cutoff and the
// same cache hits, misses and fills (TestServeBurstCtxParity), so the
// paper's node-access figures do not depend on which fetch served them.
// A cached page is pinned for exactly the span of its records' borrow
// (concurrent readers' LRU pressure cannot evict it mid-encode) and
// unpinned before the next page is looked up; an error from emit
// mid-burst still returns bufpool.Cache.PinnedCount to zero.
//
// A page that is not borrowed from the cache is a raw read into one
// pooled page buffer, shared by the whole burst, with only the requested
// slots decoded: every page without a cache, and past a run's admission
// cutoff every page that misses (the same single charged access the
// decoded path's unfilled miss would issue, with the decode allocation
// skipped). A full-table serve therefore stays allocation-free.
func (f *File) ServeBurstCtx(ctxs []*exec.Context, runs [][]RID, emit func(int, *record.Record) error) error {
	s := serveState{f: f, pinned: pagestore.InvalidPage}
	defer s.release()
	for qi, rids := range runs {
		if err := s.serveRun(ctxs[qi], qi, rids, emit); err != nil {
			return err
		}
	}
	return nil
}

// serveState is what ServeBurstCtx's runs share: the cache pin on the
// page being borrowed, the burst's one raw page buffer and the decode
// target for raw slots.
type serveState struct {
	f      *File
	pinned pagestore.PageID          // InvalidPage when no pin is held
	raw    *[pagestore.PageSize]byte // pooled on the first raw read
	rec    record.Record
}

// serveRun serves one query's run under its own context and scan
// tracker; every run looks its first page up again, charged to its ctx.
func (s *serveState) serveRun(ctx *exec.Context, qi int, rids []RID, emit func(int, *record.Record) error) error {
	var (
		cur     *page
		curPage = pagestore.InvalidPage
		onRaw   bool // the current page lives in s.raw, not cur
	)
	scan := exec.TrackScan(ctx)
	defer scan.End()
	maxPage := pagestore.PageID(0)
	for _, rid := range rids {
		if rid.Page != curPage {
			if rid.Page >= maxPage {
				maxPage = rid.Page + 1
				scan.NotePage()
			}
			var err error
			if cur, onRaw, err = s.fetch(ctx, rid.Page); err != nil {
				return fmt.Errorf("heapfile: %w", err)
			}
			curPage = rid.Page
		}
		r := &s.rec
		if onRaw {
			rec, err := decodeSlot(s.raw[:], rid)
			if err != nil {
				return err
			}
			s.rec = rec
		} else {
			var err error
			if r, err = cur.slotRef(rid); err != nil {
				return err
			}
		}
		if err := emit(qi, r); err != nil {
			return err
		}
	}
	return nil
}

// fetch drops the previous page's pin and looks id up. Below the
// admission cutoff a cached file decodes (and admits) it pinned, exactly
// like GetManyCtx's ReadNode; otherwise a resident page is still an
// ordinary pinned, charged cache hit, and anything else is read raw into
// s.raw (onRaw).
func (s *serveState) fetch(ctx *exec.Context, id pagestore.PageID) (p *page, onRaw bool, err error) {
	s.unpin()
	io := s.f.io
	if io.Cache() != nil && !ctx.Scanning() {
		p, pin, err := bufpool.ReadNodePinned(io, ctx, id, decodePage)
		if pin {
			s.pinned = id
		}
		return p, false, err
	}
	p, hit, err := bufpool.TryPinned[*page](io, ctx, id)
	if hit {
		s.pinned = id
	}
	if hit || err != nil {
		return p, false, err
	}
	if s.raw == nil {
		s.raw = bufpool.GetPage()
	}
	return nil, true, io.ReadRaw(ctx, id, s.raw[:])
}

func (s *serveState) unpin() {
	if s.pinned != pagestore.InvalidPage {
		s.f.io.Cache().Unpin(s.pinned)
		s.pinned = pagestore.InvalidPage
	}
}

func (s *serveState) release() {
	s.unpin()
	if s.raw != nil {
		bufpool.PutPage(s.raw)
	}
}

// getManyUncached reads into one pooled buffer per page run and decodes
// only the requested slots, like the pre-bufpool implementation.
func (f *File) getManyUncached(ctx *exec.Context, rids []RID) ([]record.Record, error) {
	out := make([]record.Record, 0, len(rids))
	buf := bufpool.GetPage()
	defer bufpool.PutPage(buf)
	curPage := pagestore.InvalidPage
	for _, rid := range rids {
		if rid.Page != curPage {
			if err := f.io.ReadRaw(ctx, rid.Page, buf[:]); err != nil {
				return nil, fmt.Errorf("heapfile: %w", err)
			}
			curPage = rid.Page
		}
		r, err := decodeSlot(buf[:], rid)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Append adds a record with no request context; see AppendCtx.
func (f *File) Append(r record.Record) (RID, error) { return f.AppendCtx(nil, r) }

// AppendCtx adds a record at the file's tail, extending the last page or
// allocating a new one, and returns its RID. Used for post-build updates.
func (f *File) AppendCtx(ctx *exec.Context, r record.Record) (RID, error) {
	if n := len(f.pages); n > 0 {
		last := f.pages[n-1]
		p, err := f.readPage(ctx, last)
		if err != nil {
			return InvalidRID, err
		}
		if cnt := len(p.recs); cnt < RecordsPerPage {
			slot := uint16(cnt)
			p.recs = append(p.recs, r)
			p.occ |= 1 << uint(slot)
			if err := f.writePage(ctx, last, p); err != nil {
				return InvalidRID, err
			}
			f.live++
			return RID{Page: last, Slot: slot}, nil
		}
	}
	id, err := f.io.Allocate(ctx)
	if err != nil {
		return InvalidRID, fmt.Errorf("heapfile: allocating page: %w", err)
	}
	if err := f.writePage(ctx, id, &page{occ: 1, recs: []record.Record{r}}); err != nil {
		return InvalidRID, err
	}
	f.pages = append(f.pages, id)
	f.live++
	return RID{Page: id, Slot: 0}, nil
}

// Delete tombstones a record with no request context; see DeleteCtx.
func (f *File) Delete(rid RID) error { return f.DeleteCtx(nil, rid) }

// DeleteCtx tombstones a record. The slot is not reused; range scans skip
// it.
func (f *File) DeleteCtx(ctx *exec.Context, rid RID) error {
	p, err := f.readPage(ctx, rid.Page)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= len(p.recs) {
		return fmt.Errorf("%w: %v", ErrBadRID, rid)
	}
	if !p.live(rid.Slot) {
		return fmt.Errorf("%w: %v", ErrDeleted, rid)
	}
	p.occ &^= 1 << uint(rid.Slot)
	if err := f.writePage(ctx, rid.Page, p); err != nil {
		return err
	}
	f.live--
	return nil
}

// NumRecords returns the number of live records.
func (f *File) NumRecords() int { return f.live }

// NumPages returns the number of data pages in the file.
func (f *File) NumPages() int { return len(f.pages) }

// Bytes returns the storage footprint of the file in bytes.
func (f *File) Bytes() int64 { return int64(len(f.pages)) * pagestore.PageSize }

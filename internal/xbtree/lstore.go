package xbtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// The paper's XB-Tree entry field e.L points to "a disk page containing the
// ids and digests of the tuples in T with a values equal to e.sk". With
// mostly-unique keys a literal page per key would waste almost 4 KB per
// record, so lists share slotted pages; a list that outgrows a slot moves to
// a dedicated chain of pages. Either way, reading a short list costs one
// page access, matching the paper's cost model.

// Tuple is the TE-side projection of a record: its id and digest (the search
// key lives in the tree entry the list hangs off).
type Tuple struct {
	ID     record.ID
	Digest digest.Digest
}

// TupleSize is the on-page footprint of one tuple.
const TupleSize = 8 + digest.Size // 28

// listRef locates a tuple list: a slot in a shared page, or — when slot is
// chainSlot — the head of a dedicated chain.
type listRef struct {
	page pagestore.PageID
	slot uint16
}

const chainSlot = 0xFFFF

var invalidRef = listRef{page: pagestore.InvalidPage}

// Shared slotted page layout:
//
//	[0:2] nslots | [2:4] dataStart | slot dir {off uint16, len uint16}... | free | data
//
// Data grows down from the page end; the directory grows up. A slot with
// off == 0 is dead. Chain page layout:
//
//	[0:4] next page id | [4:6] tuple count | tuples...
const (
	slotHeader = 4
	slotDirEnt = 4
	// maxInlineTuples is the largest list kept in a shared slot. One more
	// tuple converts the list to a chain.
	maxInlineTuples = (pagestore.PageSize - slotHeader - slotDirEnt) / TupleSize // 146
	chainHeader     = 6
	// chainCapacity is the number of tuples per chain page.
	chainCapacity = (pagestore.PageSize - chainHeader) / TupleSize // 146
)

// errTupleNotFound is returned when removing an id that is not in the list.
var errTupleNotFound = errors.New("xbtree: tuple id not in list")

// lstore manages tuple lists on a page store.
type lstore struct {
	store pagestore.Store
	// fillPage is the shared page new allocations try first; InvalidPage
	// when none is open. A simple bump allocator: when the current page
	// cannot fit a list, a fresh one is opened. Dead space from moved
	// lists is reclaimed by in-page compaction on demand.
	fillPage pagestore.PageID
	pages    int
	// page and tuples are the writers' scratch: the page image a write
	// edits before storing it, and the decoded list it rewrites. Every
	// list write runs under the TE's exclusive lock, so one of each
	// serves them all.
	page   [pagestore.PageSize]byte
	tuples []Tuple
}

func newLStore(store pagestore.Store) *lstore {
	return &lstore{store: store, fillPage: pagestore.InvalidPage}
}

// List pages keep their bytes in the store (lists are read at most once
// per query boundary), so the lstore talks to the raw store and charges
// the request context at exactly the store-access points, keeping
// the per-request counters in lockstep with the global ones. Reads borrow
// the page's bytes (pagestore.Store.Borrow, charged as one read) and fold
// or decode them where they lie: token generation holds the TE's shared
// lock and every list write its exclusive one, so no write can change a
// page while it is borrowed. Writers copy the page into the lstore's
// scratch page, edit it there and write it back.

// readPage copies page id into the writers' scratch page and returns it.
func (s *lstore) readPage(ctx *exec.Context, id pagestore.PageID) ([]byte, error) {
	if err := s.store.Read(id, s.page[:]); err != nil {
		return nil, err
	}
	ctx.AccountRead()
	return s.page[:], nil
}

// freshPage returns the writers' scratch page zeroed.
func (s *lstore) freshPage() []byte {
	clear(s.page[:])
	return s.page[:]
}

func (s *lstore) writePage(ctx *exec.Context, id pagestore.PageID, buf []byte) error {
	if err := s.store.Write(id, buf); err != nil {
		return err
	}
	ctx.AccountWrite()
	return nil
}

// borrowRun borrows page id of the list ref and returns the tuple bytes
// it holds and the list's next page (InvalidPage after the last). The
// bytes are valid only while the caller holds the TE lock.
func (s *lstore) borrowRun(ctx *exec.Context, ref listRef, id pagestore.PageID) (run []byte, next pagestore.PageID, err error) {
	page, err := s.store.Borrow(id)
	if err != nil {
		return nil, pagestore.InvalidPage, fmt.Errorf("xbtree: reading list page %d: %w", id, err)
	}
	ctx.AccountRead()
	if ref.slot == chainSlot {
		n := int(binary.BigEndian.Uint16(page[4:6]))
		return page[chainHeader : chainHeader+n*TupleSize], pagestore.PageID(binary.BigEndian.Uint32(page[0:4])), nil
	}
	off := int(binary.BigEndian.Uint16(page[slotHeader+int(ref.slot)*slotDirEnt:]))
	ln := int(binary.BigEndian.Uint16(page[slotHeader+int(ref.slot)*slotDirEnt+2:]))
	if off == 0 {
		return nil, pagestore.InvalidPage, fmt.Errorf("xbtree: dead list slot %d on page %d", ref.slot, ref.page)
	}
	return page[off : off+ln], pagestore.InvalidPage, nil
}

func putTuple(buf []byte, t Tuple) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(t.ID))
	copy(buf[8:TupleSize], t.Digest[:])
}

func encodeTuples(buf []byte, ts []Tuple) {
	for i, t := range ts {
		putTuple(buf[i*TupleSize:], t)
	}
}

// appendTuples appends the tuples encoded back to back in run to dst.
func appendTuples(dst []Tuple, run []byte) []Tuple {
	for off := 0; off < len(run); off += TupleSize {
		dst = append(dst, Tuple{
			ID:     record.ID(binary.BigEndian.Uint64(run[off : off+8])),
			Digest: digest.FromBytes(run[off+8 : off+TupleSize]),
		})
	}
	return dst
}

// alloc stores a fresh list and returns its reference.
func (s *lstore) alloc(ctx *exec.Context, ts []Tuple) (listRef, error) {
	if len(ts) > maxInlineTuples {
		return s.allocChain(ctx, ts)
	}
	need := len(ts) * TupleSize
	if s.fillPage != pagestore.InvalidPage {
		if ref, ok, err := s.tryPlace(ctx, s.fillPage, ts, need); err != nil || ok {
			return ref, err
		}
	}
	id, err := s.store.Allocate()
	if err != nil {
		return invalidRef, fmt.Errorf("xbtree: allocating list page: %w", err)
	}
	ctx.AccountAlloc()
	s.pages++
	buf := s.freshPage()
	binary.BigEndian.PutUint16(buf[2:4], pagestore.PageSize)
	if err := s.writePage(ctx, id, buf); err != nil {
		return invalidRef, fmt.Errorf("xbtree: initializing list page: %w", err)
	}
	s.fillPage = id
	ref, ok, err := s.tryPlace(ctx, id, ts, need)
	if err != nil {
		return invalidRef, err
	}
	if !ok {
		return invalidRef, fmt.Errorf("xbtree: list of %d tuples does not fit a fresh page", len(ts))
	}
	return ref, nil
}

// allocBulk stores the lists of a bulk load, in order, on a fresh lstore
// (no fill page open). It leaves exactly the pages, slots, chains and
// references that one alloc call per list would, but packs each shared
// page in memory and writes it once, where alloc reads and rewrites the
// fill page per list. No page is freed during a bulk load, so the fill
// page is never compacted and a list fits iff its bytes and one
// directory entry do.
func (s *lstore) allocBulk(items []KeyTuples) ([]listRef, error) {
	refs := make([]listRef, len(items))
	var buf [pagestore.PageSize]byte
	nslots, dataStart := 0, pagestore.PageSize
	flush := func() error {
		if s.fillPage == pagestore.InvalidPage {
			return nil
		}
		binary.BigEndian.PutUint16(buf[0:2], uint16(nslots))
		binary.BigEndian.PutUint16(buf[2:4], uint16(dataStart%pagestore.PageSize))
		if err := s.writePage(nil, s.fillPage, buf[:]); err != nil {
			return fmt.Errorf("xbtree: writing list page %d: %w", s.fillPage, err)
		}
		return nil
	}
	for i, it := range items {
		ts := it.Tuples
		if len(ts) > maxInlineTuples {
			ref, err := s.allocChain(nil, ts)
			if err != nil {
				return nil, err
			}
			refs[i] = ref
			continue
		}
		need := len(ts) * TupleSize
		if s.fillPage == pagestore.InvalidPage || dataStart-(slotHeader+nslots*slotDirEnt) < need+slotDirEnt {
			if err := flush(); err != nil {
				return nil, err
			}
			id, err := s.store.Allocate()
			if err != nil {
				return nil, fmt.Errorf("xbtree: allocating list page: %w", err)
			}
			s.pages++
			s.fillPage = id
			buf = [pagestore.PageSize]byte{}
			nslots, dataStart = 0, pagestore.PageSize
		}
		dataStart -= need
		encodeTuples(buf[dataStart:dataStart+need], ts)
		binary.BigEndian.PutUint16(buf[slotHeader+nslots*slotDirEnt:], uint16(dataStart))
		binary.BigEndian.PutUint16(buf[slotHeader+nslots*slotDirEnt+2:], uint16(need))
		refs[i] = listRef{page: s.fillPage, slot: uint16(nslots)}
		nslots++
	}
	return refs, flush()
}

// tryPlace attempts to add a list to a specific shared page, compacting it
// first if dead space would make it fit.
func (s *lstore) tryPlace(ctx *exec.Context, page pagestore.PageID, ts []Tuple, need int) (listRef, bool, error) {
	buf, err := s.readPage(ctx, page)
	if err != nil {
		return invalidRef, false, fmt.Errorf("xbtree: reading list page %d: %w", page, err)
	}
	nslots := int(binary.BigEndian.Uint16(buf[0:2]))
	dataStart := int(binary.BigEndian.Uint16(buf[2:4]))
	if dataStart == 0 {
		dataStart = pagestore.PageSize // uint16 wraps at exactly 4096
	}

	// Reuse a dead slot if one exists, otherwise the directory grows.
	slot := -1
	for i := 0; i < nslots; i++ {
		if binary.BigEndian.Uint16(buf[slotHeader+i*slotDirEnt:]) == 0 {
			slot = i
			break
		}
	}
	dirEnd := slotHeader + nslots*slotDirEnt
	growDir := 0
	if slot == -1 {
		growDir = slotDirEnt
	}
	free := dataStart - dirEnd
	if free < need+growDir {
		if !compactPage(buf) {
			return invalidRef, false, nil
		}
		dataStart = int(binary.BigEndian.Uint16(buf[2:4]))
		if dataStart == 0 {
			dataStart = pagestore.PageSize
		}
		free = dataStart - dirEnd
		if free < need+growDir {
			return invalidRef, false, nil
		}
	}
	if slot == -1 {
		slot = nslots
		nslots++
		binary.BigEndian.PutUint16(buf[0:2], uint16(nslots))
	}
	dataStart -= need
	encodeTuples(buf[dataStart:dataStart+need], ts)
	binary.BigEndian.PutUint16(buf[2:4], uint16(dataStart%pagestore.PageSize))
	binary.BigEndian.PutUint16(buf[slotHeader+slot*slotDirEnt:], uint16(dataStart))
	binary.BigEndian.PutUint16(buf[slotHeader+slot*slotDirEnt+2:], uint16(need))
	if err := s.writePage(ctx, page, buf); err != nil {
		return invalidRef, false, fmt.Errorf("xbtree: writing list page %d: %w", page, err)
	}
	return listRef{page: page, slot: uint16(slot)}, true, nil
}

// compactPage rewrites live list data flush against the page end, reclaiming
// dead space left by moved or shrunk lists. Returns false if nothing was
// reclaimed.
func compactPage(buf []byte) bool {
	nslots := int(binary.BigEndian.Uint16(buf[0:2]))
	slotAt := func(i int) (off, ln int) {
		return int(binary.BigEndian.Uint16(buf[slotHeader+i*slotDirEnt:])),
			int(binary.BigEndian.Uint16(buf[slotHeader+i*slotDirEnt+2:]))
	}
	used := 0
	for i := 0; i < nslots; i++ {
		if off, ln := slotAt(i); off != 0 {
			used += ln
		}
	}
	dataStart := int(binary.BigEndian.Uint16(buf[2:4]))
	if dataStart == 0 {
		dataStart = pagestore.PageSize
	}
	if pagestore.PageSize-dataStart == used {
		return false // already compact
	}
	var scratch [pagestore.PageSize]byte
	writeAt := pagestore.PageSize
	for i := 0; i < nslots; i++ {
		off, ln := slotAt(i)
		if off == 0 {
			continue
		}
		writeAt -= ln
		copy(scratch[writeAt:], buf[off:off+ln])
		binary.BigEndian.PutUint16(buf[slotHeader+i*slotDirEnt:], uint16(writeAt))
	}
	copy(buf[writeAt:], scratch[writeAt:])
	binary.BigEndian.PutUint16(buf[2:4], uint16(writeAt%pagestore.PageSize))
	return true
}

// decode appends the tuples of a list to dst, page by borrowed page.
func (s *lstore) decode(ctx *exec.Context, ref listRef, dst []Tuple) ([]Tuple, error) {
	for id := ref.page; id != pagestore.InvalidPage; {
		run, next, err := s.borrowRun(ctx, ref, id)
		if err != nil {
			return dst, err
		}
		dst = appendTuples(dst, run)
		id = next
	}
	return dst, nil
}

// read returns the tuples of a list in a slice of their own, which the
// caller may keep.
func (s *lstore) read(ctx *exec.Context, ref listRef) ([]Tuple, error) {
	return s.decode(ctx, ref, nil)
}

// xorOf returns the XOR of the digests in a list (e.L⊕ in the paper),
// folded from the borrowed page bytes with no copy and no decode.
func (s *lstore) xorOf(ctx *exec.Context, ref listRef) (digest.Digest, error) {
	var acc digest.Accumulator
	for id := ref.page; id != pagestore.InvalidPage; {
		run, next, err := s.borrowRun(ctx, ref, id)
		if err != nil {
			return digest.Zero, err
		}
		for off := 0; off < len(run); off += TupleSize {
			acc.AddBytes(run[off+8 : off+TupleSize])
		}
		id = next
	}
	return acc.Sum(), nil
}

// appendTuple adds a tuple to a list, returning the (possibly relocated)
// reference.
func (s *lstore) appendTuple(ctx *exec.Context, ref listRef, t Tuple) (listRef, error) {
	if ref.slot == chainSlot {
		return s.appendChain(ctx, ref, t)
	}
	ts, err := s.decode(ctx, ref, s.tuples[:0])
	s.tuples = ts
	if err != nil {
		return invalidRef, err
	}
	ts = append(ts, t)
	s.tuples = ts
	if len(ts) > maxInlineTuples {
		if err := s.freeSlot(ctx, ref); err != nil {
			return invalidRef, err
		}
		return s.allocChain(ctx, ts)
	}
	// Try to grow in place: free the old slot, then place on the same page
	// (compaction makes the freed bytes reusable immediately).
	if err := s.freeSlot(ctx, ref); err != nil {
		return invalidRef, err
	}
	need := len(ts) * TupleSize
	if newRef, ok, err := s.tryPlace(ctx, ref.page, ts, need); err != nil || ok {
		return newRef, err
	}
	return s.alloc(ctx, ts)
}

// removeTuple deletes the tuple with the given id, returning its digest and
// the (possibly relocated) reference. Lists may become empty; an empty list
// remains allocated so its tree entry stays valid (tombstone semantics).
func (s *lstore) removeTuple(ctx *exec.Context, ref listRef, id record.ID) (digest.Digest, listRef, error) {
	ts, err := s.decode(ctx, ref, s.tuples[:0])
	s.tuples = ts
	if err != nil {
		return digest.Zero, invalidRef, err
	}
	at := -1
	for i, t := range ts {
		if t.ID == id {
			at = i
			break
		}
	}
	if at == -1 {
		return digest.Zero, invalidRef, fmt.Errorf("%w: id=%d", errTupleNotFound, id)
	}
	d := ts[at].Digest
	ts = append(ts[:at], ts[at+1:]...)
	if ref.slot == chainSlot && len(ts) <= maxInlineTuples {
		// Chain shrank enough to move back inline.
		if err := s.freeChain(ctx, ref.page); err != nil {
			return digest.Zero, invalidRef, err
		}
		newRef, err := s.alloc(ctx, ts)
		return d, newRef, err
	}
	if ref.slot == chainSlot {
		if err := s.freeChain(ctx, ref.page); err != nil {
			return digest.Zero, invalidRef, err
		}
		newRef, err := s.allocChain(ctx, ts)
		return d, newRef, err
	}
	// Shrink in place: shorten the slot, leaving dead bytes for compaction.
	buf, err := s.readPage(ctx, ref.page)
	if err != nil {
		return digest.Zero, invalidRef, fmt.Errorf("xbtree: reading list page %d: %w", ref.page, err)
	}
	off := int(binary.BigEndian.Uint16(buf[slotHeader+int(ref.slot)*slotDirEnt:]))
	encodeTuples(buf[off:off+len(ts)*TupleSize], ts)
	binary.BigEndian.PutUint16(buf[slotHeader+int(ref.slot)*slotDirEnt+2:], uint16(len(ts)*TupleSize))
	if err := s.writePage(ctx, ref.page, buf); err != nil {
		return digest.Zero, invalidRef, fmt.Errorf("xbtree: writing list page %d: %w", ref.page, err)
	}
	return d, ref, nil
}

// freeSlot marks a shared slot dead. The bytes are reclaimed by compaction.
func (s *lstore) freeSlot(ctx *exec.Context, ref listRef) error {
	buf, err := s.readPage(ctx, ref.page)
	if err != nil {
		return fmt.Errorf("xbtree: reading list page %d: %w", ref.page, err)
	}
	binary.BigEndian.PutUint16(buf[slotHeader+int(ref.slot)*slotDirEnt:], 0)
	binary.BigEndian.PutUint16(buf[slotHeader+int(ref.slot)*slotDirEnt+2:], 0)
	if err := s.writePage(ctx, ref.page, buf); err != nil {
		return fmt.Errorf("xbtree: writing list page %d: %w", ref.page, err)
	}
	return nil
}

// allocChain stores a large list across dedicated chain pages.
func (s *lstore) allocChain(ctx *exec.Context, ts []Tuple) (listRef, error) {
	next := pagestore.InvalidPage
	// Build back to front so each page links to the next.
	for end := len(ts); end > 0 || next == pagestore.InvalidPage; {
		start := end - chainCapacity
		if start < 0 {
			start = 0
		}
		id, err := s.store.Allocate()
		if err != nil {
			return invalidRef, fmt.Errorf("xbtree: allocating chain page: %w", err)
		}
		ctx.AccountAlloc()
		s.pages++
		buf := s.freshPage()
		binary.BigEndian.PutUint32(buf[0:4], uint32(next))
		binary.BigEndian.PutUint16(buf[4:6], uint16(end-start))
		encodeTuples(buf[chainHeader:], ts[start:end])
		if err := s.writePage(ctx, id, buf); err != nil {
			return invalidRef, fmt.Errorf("xbtree: writing chain page %d: %w", id, err)
		}
		next = id
		end = start
		if end == 0 {
			break
		}
	}
	return listRef{page: next, slot: chainSlot}, nil
}

// appendChain adds a tuple to a chained list, to the head page if it has
// room, otherwise via a new head.
func (s *lstore) appendChain(ctx *exec.Context, ref listRef, t Tuple) (listRef, error) {
	buf, err := s.readPage(ctx, ref.page)
	if err != nil {
		return invalidRef, fmt.Errorf("xbtree: reading chain page %d: %w", ref.page, err)
	}
	n := int(binary.BigEndian.Uint16(buf[4:6]))
	if n < chainCapacity {
		putTuple(buf[chainHeader+n*TupleSize:], t)
		binary.BigEndian.PutUint16(buf[4:6], uint16(n+1))
		if err := s.writePage(ctx, ref.page, buf); err != nil {
			return invalidRef, fmt.Errorf("xbtree: writing chain page %d: %w", ref.page, err)
		}
		return ref, nil
	}
	id, err := s.store.Allocate()
	if err != nil {
		return invalidRef, fmt.Errorf("xbtree: allocating chain page: %w", err)
	}
	ctx.AccountAlloc()
	s.pages++
	head := s.freshPage()
	binary.BigEndian.PutUint32(head[0:4], uint32(ref.page))
	binary.BigEndian.PutUint16(head[4:6], 1)
	putTuple(head[chainHeader:], t)
	if err := s.writePage(ctx, id, head); err != nil {
		return invalidRef, fmt.Errorf("xbtree: writing chain page %d: %w", id, err)
	}
	return listRef{page: id, slot: chainSlot}, nil
}

// freeChain frees every page of a chain, reading each one's link from a
// borrow before the page goes.
func (s *lstore) freeChain(ctx *exec.Context, head pagestore.PageID) error {
	for id := head; id != pagestore.InvalidPage; {
		_, next, err := s.borrowRun(ctx, listRef{page: head, slot: chainSlot}, id)
		if err != nil {
			return err
		}
		if err := s.store.Free(id); err != nil {
			return fmt.Errorf("xbtree: freeing chain page %d: %w", id, err)
		}
		ctx.AccountFree()
		s.pages--
		id = next
	}
	return nil
}

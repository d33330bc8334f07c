package pagestore

import (
	"fmt"
	"sync"
)

// Versioned wraps a Store with page-level multi-version concurrency
// control, the substrate for MVCC snapshot reads: a reader opens a
// snapshot at the current generation and keeps seeing exactly that state
// — bit-identical pages — no matter how many commit groups the writer
// applies after, while the writer never waits for the reader.
//
// The mechanism is copy-on-write at the page level. Every page carries
// the generation it was last written in. Opening a snapshot captures the
// current generation S and advances the store's generation, so every
// later write is stamped > S; the first write (or free) of a page whose
// current content is visible to an open snapshot saves the old bytes
// into a version chain before the overwrite. A snapshot read returns the
// live page when its stamp is <= S, else the newest saved version
// stamped <= S. Version memory is bounded by the pages rewritten while a
// snapshot is open and is released when the last snapshot closes.
//
// Generations advance only at snapshot opens, so a write-only workload
// (no snapshots) pays one map update per write and saves nothing.
type Versioned struct {
	inner Store

	mu      sync.RWMutex
	gen     uint64            // generation stamped on new writes
	lastGen map[PageID]uint64 // page -> generation of its live content
	vers    map[PageID][]pageVersion
	snaps   map[uint64]int // open snapshot generation -> refcount
}

type pageVersion struct {
	gen   uint64
	bytes []byte
}

// NewVersioned wraps inner with page versioning.
func NewVersioned(inner Store) *Versioned {
	return &Versioned{
		inner:   inner,
		gen:     1,
		lastGen: make(map[PageID]uint64),
		vers:    make(map[PageID][]pageVersion),
		snaps:   make(map[uint64]int),
	}
}

// Allocate implements Store. The fresh (or recycled, zeroed) page belongs
// to the current generation; recycled pages' prior content was saved by
// the Free that released them, if any snapshot needed it.
func (v *Versioned) Allocate() (PageID, error) {
	id, err := v.inner.Allocate()
	if err != nil {
		return 0, err
	}
	v.mu.Lock()
	v.lastGen[id] = v.gen
	v.mu.Unlock()
	return id, nil
}

// Read implements Store: live reads pass straight through.
func (v *Versioned) Read(id PageID, buf []byte) error {
	return v.inner.Read(id, buf)
}

// saveIfVisibleLocked saves the page's current bytes into its version
// chain when an open snapshot still sees them. Caller holds v.mu.
func (v *Versioned) saveIfVisibleLocked(id PageID) error {
	g := v.lastGen[id]
	if g >= v.gen {
		return nil // already stamped in the current generation: no open snapshot sees it
	}
	needed := false
	for s := range v.snaps {
		if s >= g {
			needed = true
			break
		}
	}
	if !needed {
		return nil
	}
	old := make([]byte, PageSize)
	if err := v.inner.Read(id, old); err != nil {
		return fmt.Errorf("pagestore: saving page %d version: %w", id, err)
	}
	v.vers[id] = append(v.vers[id], pageVersion{gen: g, bytes: old})
	return nil
}

// Write implements Store, saving the overwritten content first when an
// open snapshot still sees it.
func (v *Versioned) Write(id PageID, buf []byte) error {
	v.mu.Lock()
	if err := v.saveIfVisibleLocked(id); err != nil {
		v.mu.Unlock()
		return err
	}
	v.lastGen[id] = v.gen
	v.mu.Unlock()
	return v.inner.Write(id, buf)
}

// Free implements Store. The released page may be recycled and zeroed by
// a later Allocate, so its content is saved exactly like an overwrite.
func (v *Versioned) Free(id PageID) error {
	v.mu.Lock()
	if err := v.saveIfVisibleLocked(id); err != nil {
		v.mu.Unlock()
		return err
	}
	v.lastGen[id] = v.gen
	v.mu.Unlock()
	return v.inner.Free(id)
}

// NumPages implements Store.
func (v *Versioned) NumPages() int { return v.inner.NumPages() }

// Close implements Store.
func (v *Versioned) Close() error { return v.inner.Close() }

// Generation returns the generation new writes are stamped with.
func (v *Versioned) Generation() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.gen
}

// VersionedPages returns how many pages currently hold saved versions
// (tests and introspection).
func (v *Versioned) VersionedPages() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.vers)
}

// OpenSnapshot freezes the current state: the returned view reads every
// page exactly as it is now, forever, regardless of later writes. The
// caller must Close the view to release retained page versions. The
// caller is responsible for quiescing writers across the call (the SAE
// parties open snapshots under their structure read-lock, so no write is
// in flight mid-open).
func (v *Versioned) OpenSnapshot() *SnapshotView {
	v.mu.Lock()
	s := v.gen
	v.gen++
	v.snaps[s]++
	v.mu.Unlock()
	return &SnapshotView{v: v, s: s}
}

// closeSnapshot releases one reference on generation s, dropping all
// retained versions once no snapshot remains. (Per-version pruning would
// retain less while multiple overlapping snapshots are open; snapshots
// are short-lived scan handles, so the simple rule bounds memory fine.)
func (v *Versioned) closeSnapshot(s uint64) {
	v.mu.Lock()
	if n := v.snaps[s]; n > 1 {
		v.snaps[s] = n - 1
	} else {
		delete(v.snaps, s)
	}
	if len(v.snaps) == 0 {
		v.vers = make(map[PageID][]pageVersion)
	}
	v.mu.Unlock()
}

// SnapshotView is a read-only Store serving the state frozen by
// OpenSnapshot. Reads are safe concurrently with each other and with
// writes to the parent store.
type SnapshotView struct {
	v      *Versioned
	s      uint64
	closed bool
	mu     sync.Mutex // guards closed
}

// Generation returns the snapshot's generation stamp.
func (sv *SnapshotView) Generation() uint64 { return sv.s }

// Read implements Store for the frozen state.
func (sv *SnapshotView) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadBufSize
	}
	v := sv.v
	v.mu.RLock()
	if g, ok := v.lastGen[id]; !ok || g <= sv.s {
		// Live content still is (or predates) the snapshot state. The
		// inner read happens under the version lock so a concurrent
		// writer cannot overwrite between the check and the read.
		err := v.inner.Read(id, buf)
		v.mu.RUnlock()
		return err
	}
	// Newest saved version at or before the snapshot generation.
	var best *pageVersion
	for i := range v.vers[id] {
		pv := &v.vers[id][i]
		if pv.gen <= sv.s && (best == nil || pv.gen > best.gen) {
			best = pv
		}
	}
	if best == nil {
		v.mu.RUnlock()
		return fmt.Errorf("%w: snapshot read of page %d at generation %d", ErrBadPageID, id, sv.s)
	}
	copy(buf, best.bytes)
	v.mu.RUnlock()
	return nil
}

// Allocate implements Store; snapshots are read-only.
func (sv *SnapshotView) Allocate() (PageID, error) {
	return 0, fmt.Errorf("pagestore: snapshot view is read-only")
}

// Write implements Store; snapshots are read-only.
func (sv *SnapshotView) Write(PageID, []byte) error {
	return fmt.Errorf("pagestore: snapshot view is read-only")
}

// Free implements Store; snapshots are read-only.
func (sv *SnapshotView) Free(PageID) error {
	return fmt.Errorf("pagestore: snapshot view is read-only")
}

// NumPages implements Store.
func (sv *SnapshotView) NumPages() int { return sv.v.NumPages() }

// Close releases the snapshot's retained versions. Idempotent.
func (sv *SnapshotView) Close() error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil
	}
	sv.closed = true
	sv.v.closeSnapshot(sv.s)
	return nil
}

package bufpool

import (
	"sync"

	"sae/internal/pagestore"
)

// PinEpoch batches pin lifetimes for a burst serve. The per-request serve
// path pins each heap page for exactly the window its records are being
// borrowed and unpins on the page transition; a burst instead pins every
// page any of its queries touches and releases them all in ONE epoch at
// the end of the burst, so a page shared by several queries in the burst
// is decoded once and its borrow windows merge.
//
// Pins are counters on the cached entry, so recording the same page twice
// is correct: Release undoes exactly the pins this epoch took, no matter
// how many queries shared the page. An epoch belongs to one goroutine
// (one serve lane); Release is idempotent and MUST be called (normally
// deferred) so that an error or a context cancellation mid-burst still
// returns Cache.PinnedCount to zero.
type PinEpoch struct {
	cache *Cache
	ids   *[]pagestore.PageID // pooled; nil without a cache and once released
}

// pinIDs recycles the epochs' id lists, so a steady-state burst allocates
// nothing for its pin bookkeeping.
var pinIDs = sync.Pool{New: func() any { return new([]pagestore.PageID) }}

// NewPinEpoch returns an epoch releasing into cache (nil cache is allowed
// and makes every method a no-op, matching uncached IO).
func NewPinEpoch(cache *Cache) PinEpoch {
	e := PinEpoch{cache: cache}
	if cache != nil {
		e.ids = pinIDs.Get().(*[]pagestore.PageID)
	}
	return e
}

// Note records one pin taken on id, to be released with the epoch.
func (e *PinEpoch) Note(id pagestore.PageID) {
	if e.ids != nil {
		*e.ids = append(*e.ids, id)
	}
}

// Len returns the number of pins the epoch currently holds.
func (e *PinEpoch) Len() int {
	if e.ids == nil {
		return 0
	}
	return len(*e.ids)
}

// Release unpins every recorded page and ends the epoch. Safe to call
// more than once; the second call is a no-op.
func (e *PinEpoch) Release() {
	if e.ids == nil {
		return
	}
	for _, id := range *e.ids {
		e.cache.Unpin(id)
	}
	*e.ids = (*e.ids)[:0]
	pinIDs.Put(e.ids)
	e.ids = nil
}

package bufpool

import "sae/internal/pagestore"

// genTable implements the generation-stamp protocol that keeps a cache
// shard safe for fills performed outside its lock.
//
// The protocol: a reader that misses records the page's current
// generation, performs the slow read (and decode) without holding any
// lock, and installs the result only if the generation has not moved in
// the meantime. Every write, free, or allocation of the page bumps its
// generation, so a stale in-flight fill is dropped instead of resurrecting
// overwritten data.
//
// The invariant that makes this correct is that stamps are NEVER deleted:
// dropping a page's stamp while a miss is in flight would reset it to zero
// and let the stale fill through. A table therefore grows by one small map
// entry per page ever stamped — ~8 bytes per page ever written, strictly
// below the page data itself.
//
// genTable performs no locking; the shard calls it under its own mutex.
type genTable map[pagestore.PageID]uint64

// current returns the page's generation. Pages never stamped are at
// generation zero.
func (t genTable) current(id pagestore.PageID) uint64 { return t[id] }

// bump advances the page's generation, invalidating every fill in flight
// for it. Call on write, free, and (re)allocation.
func (t genTable) bump(id pagestore.PageID) { t[id]++ }

// stale reports whether a fill recorded at generation g must be dropped
// because the page moved on since.
func (t genTable) stale(id pagestore.PageID, g uint64) bool { return t[id] != g }

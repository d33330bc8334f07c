// Package bufpool is the memory layer between the page stores and the
// structures built on them. It provides two things:
//
//   - Table, a tree's node table: the one place the B+-tree's, MB-Tree's
//     and XB-Tree's nodes live, each a Go object found by its page id, and
//     the rule by which every node access is charged as the page access it
//     stands for; and
//   - a process-wide sync.Pool of 4096-byte page buffers (GetPage/PutPage)
//     for the heap file, which keeps its pages as bytes in its store.
package bufpool

import (
	"sync"

	"sae/internal/pagestore"
)

// pagePool recycles page-sized buffers across all stores and structures.
var pagePool = sync.Pool{
	New: func() any { return new([pagestore.PageSize]byte) },
}

// GetPage returns a page buffer from the pool. Contents are undefined;
// callers must overwrite the full page.
func GetPage() *[pagestore.PageSize]byte {
	return pagePool.Get().(*[pagestore.PageSize]byte)
}

// PutPage returns a buffer to the pool. The caller must not retain it.
func PutPage(p *[pagestore.PageSize]byte) {
	pagePool.Put(p)
}

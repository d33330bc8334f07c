package heapfile

import (
	"sae/internal/bufpool"
	"sae/internal/pagestore"
)

// Meta is the heap file's out-of-page state: its page list (in file order)
// and live-record count.
type Meta struct {
	Pages []pagestore.PageID
	Live  int
}

// Meta captures the file's current metadata. The returned page slice is a
// copy.
func (f *File) Meta() Meta {
	return Meta{Pages: append([]pagestore.PageID(nil), f.pages...), Live: f.live}
}

// Open reattaches a heap file to a store that already contains its pages.
func Open(store pagestore.Store, m Meta) *File {
	return &File{
		io:    bufpool.NewIO(store, nil),
		pages: append([]pagestore.PageID(nil), m.Pages...),
		live:  m.Live,
	}
}

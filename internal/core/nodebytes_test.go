package core

import (
	"testing"

	"sae/internal/pagestore"
	"sae/internal/workload"
)

// TestTreeNodesHoldNoStoreBytes: a party's page counts and storage sizes
// are those of a paged tree (the figures below are what they were when
// every node had a page image), but the store holds 4 KiB buffers only
// for the pages written through it, the heap file's and the XB-Tree's
// tuple lists: 126 B+-tree and 421 XB-Tree nodes live as objects.
func TestTreeNodesHoldNoStoreBytes(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	spMem, teMem := pagestore.NewMem(), pagestore.NewMem()
	sp, te := NewServiceProvider(spMem), NewTrustedEntity(teMem)
	if err := sp.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	if err := te.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	if got, want := spMem.NumPages(), 6376; got != want {
		t.Errorf("SP store has %d pages, want %d", got, want)
	}
	if got, want := sp.StorageBytes(), int64(26_116_096); got != want {
		t.Errorf("SP storage %d bytes, want %d", got, want)
	}
	if got, want := sp.index.NodeCount(), 126; got != want {
		t.Errorf("SP index has %d nodes, want %d", got, want)
	}
	if got, want := spMem.Buffers(), spMem.NumPages()-sp.index.NodeCount(); got != want || int64(got)*pagestore.PageSize != sp.HeapBytes() {
		t.Errorf("SP store holds %d buffers, want %d, one per heap page", got, want)
	}
	if got, want := teMem.NumPages(), 814; got != want {
		t.Errorf("TE store has %d pages, want %d", got, want)
	}
	if got, want := te.StorageBytes(), int64(3_334_144); got != want {
		t.Errorf("TE storage %d bytes, want %d", got, want)
	}
	if got, want := te.tree.NodeCount(), 421; got != want {
		t.Errorf("XB-Tree has %d nodes, want %d", got, want)
	}
	if got, want := teMem.Buffers(), teMem.NumPages()-te.tree.NodeCount(); got != want {
		t.Errorf("TE store holds %d buffers, want %d, one per tuple-list page", got, want)
	}
}

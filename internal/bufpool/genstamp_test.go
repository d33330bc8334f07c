package bufpool

import "testing"

func TestGenTableProtocol(t *testing.T) {
	tb := make(genTable)
	if g := tb.current(7); g != 0 {
		t.Fatalf("fresh page at generation %d, want 0", g)
	}
	// A fill recorded before any bump is installable.
	g := tb.current(7)
	if tb.stale(7, g) {
		t.Fatal("un-bumped page reported stale")
	}
	// A write overtaking the fill makes it stale.
	tb.bump(7)
	if !tb.stale(7, g) {
		t.Fatal("bumped page not reported stale")
	}
	// A fill recorded after the bump is fine again.
	g = tb.current(7)
	if tb.stale(7, g) {
		t.Fatal("refreshed generation reported stale")
	}
	// Stamps are never deleted: distinct pages accumulate.
	tb.bump(1)
	tb.bump(2)
	if len(tb) != 3 {
		t.Fatalf("%d pages stamped, want 3", len(tb))
	}
}

func TestGenTableKeysIndependent(t *testing.T) {
	tb := make(genTable)
	gA := tb.current(1)
	tb.bump(2)
	if tb.stale(1, gA) {
		t.Fatal("bumping one page invalidated another")
	}
}

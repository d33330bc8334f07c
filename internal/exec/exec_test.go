package exec

import (
	"testing"

	"sae/internal/pagestore"
)

func TestNilContextIsSafe(t *testing.T) {
	var c *Context
	c.AccountRead()
	c.AccountWrite()
	c.AccountAlloc()
	c.AccountFree()
	if c.Stats() != (pagestore.Stats{}) {
		t.Fatal("nil context reports non-zero stats")
	}
}

func TestAccounting(t *testing.T) {
	c := NewContext()
	for i := 0; i < 3; i++ {
		c.AccountRead()
	}
	c.AccountWrite()
	c.AccountWrite()
	c.AccountAlloc()
	c.AccountFree()
	got := c.Stats()
	want := pagestore.Stats{Reads: 3, Writes: 2, Allocs: 1, Frees: 1}
	if got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if got.Accesses() != 5 {
		t.Fatalf("Accesses = %d, want 5", got.Accesses())
	}

	// Phase deltas work like the global counters did.
	mid := c.Stats()
	c.AccountRead()
	if d := c.Stats().Sub(mid); d.Reads != 1 || d.Writes != 0 {
		t.Fatalf("phase delta = %+v, want one read", d)
	}
}

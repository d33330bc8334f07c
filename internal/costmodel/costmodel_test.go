package costmodel

import (
	"testing"
	"time"

	"sae/internal/pagestore"
)

func TestIOCost(t *testing.T) {
	if got := Default.IOCost(7); got != 70*time.Millisecond {
		t.Fatalf("IOCost(7) = %v, want 70ms", got)
	}
	if got := Default.IOCost(0); got != 0 {
		t.Fatalf("IOCost(0) = %v, want 0", got)
	}
}

func TestMeasure(t *testing.T) {
	delta := pagestore.Stats{Reads: 3, Writes: 2}
	b := Default.Measure(delta, 5*time.Millisecond)
	if b.Accesses != 5 {
		t.Fatalf("Accesses = %g, want 5", b.Accesses)
	}
	if b.IO != 50*time.Millisecond {
		t.Fatalf("IO = %v, want 50ms", b.IO)
	}
	if b.Total() != 55*time.Millisecond {
		t.Fatalf("Total = %v, want 55ms", b.Total())
	}
}

func TestAddDiv(t *testing.T) {
	a := Breakdown{Accesses: 10, IO: 100 * time.Millisecond, CPU: 10 * time.Millisecond}
	sum := a.Add(a).Add(a).Add(a)
	if sum.Accesses != 40 {
		t.Fatalf("sum accesses = %g", sum.Accesses)
	}
	avg := sum.Div(4)
	if avg != a {
		t.Fatalf("avg = %+v, want %+v", avg, a)
	}
	// The mean keeps its fraction: 44 accesses over 20 queries are 2.2
	// per query, not 2.
	if got := (Breakdown{Accesses: 44, IO: 440 * time.Millisecond}).Div(20); got.Accesses != 2.2 || got.IO != 22*time.Millisecond {
		t.Fatalf("Div(20) of 44 accesses = %+v, want 2.2 accesses, 22ms", got)
	}
	if (Breakdown{}).Div(0) != (Breakdown{}) {
		t.Fatal("Div(0) must return zero breakdown")
	}
}

func TestMillis(t *testing.T) {
	if got := Millis(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("Millis = %v, want 1.5", got)
	}
}

func TestString(t *testing.T) {
	b := Breakdown{Accesses: 2, IO: 20 * time.Millisecond, CPU: time.Millisecond}
	if s := b.String(); s == "" {
		t.Fatal("empty String()")
	}
}

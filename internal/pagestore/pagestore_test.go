package pagestore

import (
	"bytes"
	"errors"
	"testing"
)

// storeFactories names every Store implementation the conformance tests
// run against.
func storeFactories(t *testing.T) map[string]func(t *testing.T) Store {
	return map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMem() },
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			id, err := s.Allocate()
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			buf := make([]byte, PageSize)
			if err := s.Read(id, buf); err != nil {
				t.Fatalf("Read fresh page: %v", err)
			}
			if !bytes.Equal(buf, make([]byte, PageSize)) {
				t.Fatal("fresh page is not zeroed")
			}

			for i := range buf {
				buf[i] = byte(i)
			}
			if err := s.Write(id, buf); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got := make([]byte, PageSize)
			if err := s.Read(id, got); err != nil {
				t.Fatalf("Read back: %v", err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatal("read back different bytes than written")
			}
			lent, err := s.Borrow(id)
			if err != nil {
				t.Fatalf("Borrow: %v", err)
			}
			if !bytes.Equal(lent, buf) {
				t.Fatal("borrowed different bytes than written")
			}
			// A store lends the page itself: the next write shows through.
			buf[0] ^= 0xFF
			if err := s.Write(id, buf); err != nil {
				t.Fatalf("second Write: %v", err)
			}
			if lent[0] != buf[0] {
				t.Fatal("a borrowed page does not see a later write")
			}
			if n := s.NumPages(); n != 1 {
				t.Fatalf("NumPages = %d, want 1", n)
			}
		})
	}
}

func TestStoreFreeAndRecycle(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			a, _ := s.Allocate()
			b, _ := s.Allocate()
			buf := make([]byte, PageSize)
			buf[0] = 0xEE
			if err := s.Write(a, buf); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := s.Free(a); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if n := s.NumPages(); n != 1 {
				t.Fatalf("NumPages after free = %d, want 1", n)
			}
			c, err := s.Allocate()
			if err != nil {
				t.Fatalf("Allocate after free: %v", err)
			}
			if c != a {
				t.Fatalf("recycled id = %d, want %d", c, a)
			}
			got := make([]byte, PageSize)
			if err := s.Read(c, got); err != nil {
				t.Fatalf("Read recycled: %v", err)
			}
			if !bytes.Equal(got, make([]byte, PageSize)) {
				t.Fatal("recycled page was not zeroed")
			}
			_ = b
		})
	}
}

// TestMemRecyclesFreedPages: Mem keeps a freed page's buffer and hands
// it back, zeroed, with the next Allocate, so a free+allocate pair costs
// no memory; a freed id cannot be borrowed until it is allocated again.
func TestMemRecyclesFreedPages(t *testing.T) {
	m := NewMem()
	defer m.Close()
	id, _ := m.Allocate()
	buf := bytes.Repeat([]byte{0xEE}, PageSize)
	if err := m.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	old, _ := m.Borrow(id)
	if err := m.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Borrow(id); !errors.Is(err, ErrBadPageID) {
		t.Fatalf("Borrow of a freed page: err = %v, want ErrBadPageID", err)
	}
	got, err := m.Allocate()
	if err != nil || got != id {
		t.Fatalf("Allocate after Free = %d, %v; want %d", got, err, id)
	}
	lent, _ := m.Borrow(got)
	if &lent[0] != &old[0] {
		t.Fatal("Allocate did not reuse the freed page's buffer")
	}
	if !bytes.Equal(lent, make([]byte, PageSize)) {
		t.Fatal("a recycled page is not zeroed")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.Free(id); err != nil {
			t.Fatal(err)
		}
		if id, err = m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a Free+Allocate pair allocates %.1f times, want 0", allocs)
	}
}

func TestStoreErrors(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			short := make([]byte, PageSize-1)
			if err := s.Read(0, short); err != ErrBadBufSize {
				t.Fatalf("Read(short buf) error = %v, want ErrBadBufSize", err)
			}
			full := make([]byte, PageSize)
			if err := s.Read(12345, full); err == nil {
				t.Fatal("Read of unallocated page succeeded")
			}
			if err := s.Write(12345, full); err == nil {
				t.Fatal("Write of unallocated page succeeded")
			}
			if _, err := s.Borrow(12345); err == nil {
				t.Fatal("Borrow of unallocated page succeeded")
			}
		})
	}
}

func TestMemClosedStore(t *testing.T) {
	s := NewMem()
	id, _ := s.Allocate()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := s.Read(id, buf); err != ErrStoreClosed {
		t.Fatalf("Read after close error = %v, want ErrStoreClosed", err)
	}
	if _, err := s.Allocate(); err != ErrStoreClosed {
		t.Fatalf("Allocate after close error = %v, want ErrStoreClosed", err)
	}
	if _, err := s.Borrow(id); err != ErrStoreClosed {
		t.Fatalf("Borrow after close error = %v, want ErrStoreClosed", err)
	}
}

func TestCountingStats(t *testing.T) {
	c := NewCounting(NewMem())
	id, _ := c.Allocate()
	buf := make([]byte, PageSize)
	_ = c.Write(id, buf)
	_ = c.Read(id, buf)
	_, _ = c.Borrow(id) // a borrow is charged as a read
	st := c.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("Stats = %+v, want reads=2 writes=1 allocs=1", st)
	}
	if st.Accesses() != 3 {
		t.Fatalf("Accesses = %d, want 3", st.Accesses())
	}
	c.Reset()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("Stats after Reset = %+v, want zero", st)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, Writes: 3, Allocs: 2, Frees: 1}
	b := Stats{Reads: 2, Writes: 1, Allocs: 1, Frees: 0}
	if got := a.Sub(b); got != (Stats{Reads: 3, Writes: 2, Allocs: 1, Frees: 1}) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := b.Add(b); got != (Stats{Reads: 4, Writes: 2, Allocs: 2, Frees: 0}) {
		t.Fatalf("Add = %+v", got)
	}
}

func TestBytes(t *testing.T) {
	s := NewMem()
	for i := 0; i < 3; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := Bytes(s); got != 3*PageSize {
		t.Fatalf("Bytes = %d, want %d", got, 3*PageSize)
	}
}

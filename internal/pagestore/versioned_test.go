package pagestore

import (
	"bytes"
	"sync"
	"testing"
)

// fillPage returns a page whose bytes are a pattern keyed by seed.
func fillPage(seed byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = byte(int(seed) + i*13)
	}
	return p
}

func TestVersionedSnapshotIsolation(t *testing.T) {
	v := NewVersioned(NewMem())
	id, err := v.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(id, fillPage(1)); err != nil {
		t.Fatal(err)
	}

	snap := v.OpenSnapshot()
	defer snap.Close()

	// Overwrite twice after the snapshot: the snapshot keeps the original.
	if err := v.Write(id, fillPage(2)); err != nil {
		t.Fatal(err)
	}
	if err := v.Write(id, fillPage(3)); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, PageSize)
	if err := snap.Read(id, buf); err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	if !bytes.Equal(buf, fillPage(1)) {
		t.Fatalf("snapshot sees %d, want the pre-snapshot content 1", buf[0])
	}
	if err := v.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage(3)) {
		t.Fatalf("live read sees %d, want latest content 3", buf[0])
	}
	if v.VersionedPages() != 1 {
		t.Fatalf("%d versioned pages, want 1 (second overwrite saves nothing)", v.VersionedPages())
	}
}

func TestVersionedFreeAndRecycle(t *testing.T) {
	v := NewVersioned(NewMem())
	id, _ := v.Allocate()
	if err := v.Write(id, fillPage(7)); err != nil {
		t.Fatal(err)
	}
	snap := v.OpenSnapshot()
	defer snap.Close()

	// Free, then recycle the page for unrelated content.
	if err := v.Free(id); err != nil {
		t.Fatal(err)
	}
	id2, _ := v.Allocate()
	if id2 != id {
		t.Fatalf("expected the freed page %d to be recycled, got %d", id, id2)
	}
	if err := v.Write(id2, fillPage(9)); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, PageSize)
	if err := snap.Read(id, buf); err != nil {
		t.Fatalf("snapshot read of freed page: %v", err)
	}
	if !bytes.Equal(buf, fillPage(7)) {
		t.Fatalf("snapshot of a freed+recycled page sees %d, want 7", buf[0])
	}
}

func TestVersionedMultipleSnapshots(t *testing.T) {
	v := NewVersioned(NewMem())
	id, _ := v.Allocate()
	v.Write(id, fillPage(1))
	s1 := v.OpenSnapshot()
	v.Write(id, fillPage(2))
	s2 := v.OpenSnapshot()
	v.Write(id, fillPage(3))

	buf := make([]byte, PageSize)
	if err := s1.Read(id, buf); err != nil || buf[0] != 1 {
		t.Fatalf("s1 sees %d (err %v), want 1", buf[0], err)
	}
	if err := s2.Read(id, buf); err != nil || buf[0] != 2 {
		t.Fatalf("s2 sees %d (err %v), want 2", buf[0], err)
	}
	s1.Close()
	if err := s2.Read(id, buf); err != nil || buf[0] != 2 {
		t.Fatalf("s2 after s1 close sees %d (err %v), want 2", buf[0], err)
	}
	s2.Close()
	if v.VersionedPages() != 0 {
		t.Fatalf("%d versioned pages retained after all snapshots closed", v.VersionedPages())
	}
	// Post-close writes save nothing.
	v.Write(id, fillPage(4))
	if v.VersionedPages() != 0 {
		t.Fatalf("write with no open snapshot saved a version")
	}
}

func TestVersionedNoSnapshotNoOverhead(t *testing.T) {
	v := NewVersioned(NewMem())
	id, _ := v.Allocate()
	for i := 0; i < 10; i++ {
		if err := v.Write(id, fillPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if v.VersionedPages() != 0 {
		t.Fatalf("write-only workload saved %d page versions", v.VersionedPages())
	}
}

// TestVersionedConcurrentReadersWriter races snapshot readers against a
// writer; every snapshot must keep seeing its frozen byte, and the run
// must be race-clean under -race.
func TestVersionedConcurrentReadersWriter(t *testing.T) {
	v := NewVersioned(NewMem())
	id, _ := v.Allocate()
	v.Write(id, fillPage(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := v.OpenSnapshot()
				if err := snap.Read(id, buf); err != nil {
					errCh <- err
					snap.Close()
					return
				}
				want := buf[0]
				for k := 0; k < 3; k++ {
					if err := snap.Read(id, buf); err != nil || buf[0] != want {
						errCh <- err
						snap.Close()
						return
					}
				}
				snap.Close()
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		if err := v.Write(id, fillPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("concurrent snapshot reader: %v", err)
		}
	}
}

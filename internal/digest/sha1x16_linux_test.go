package digest

import (
	"math/rand"
	"syscall"
	"testing"

	"sae/internal/record"
)

// TestSHA1x16NoOverread places k records flush against an inaccessible
// page, for every k, and runs the kernel over them: a byte read past the
// k-th record — or before the first — faults. It also places them flush
// after an inaccessible page.
func TestSHA1x16NoOverread(t *testing.T) {
	requireX16(t)
	page := syscall.Getpagesize()
	body := (16*record.Size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if err := syscall.Mprotect(mem[page+body:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	usable := mem[page : page+body]
	rand.New(rand.NewSource(63)).Read(usable)
	for k := 1; k <= 16; k++ {
		checkX16(t, usable[body-k*record.Size:], k, "flush before the guard page")
		checkX16(t, usable, k, "flush after the guard page")
	}
}

package router

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// blackhole returns the address of a listener that swallows SYNs: its
// accept queue holds one connection, the test fills it, and the kernel
// drops every further SYN instead of refusing it — what a firewalled or
// wedged upstream looks like to a dialer.
func blackhole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return addr
}

// TestEndpointDialIsBounded: acquire dials under the endpoint's lock, and
// every pick of the shard takes that lock through isDown. An upstream that
// drops SYNs must therefore fail the dial within dialTimeout and leave the
// endpoint marked down — not hold the lock, and with it every request of
// the shard, for the kernel's connect timeout (two minutes).
func TestEndpointDialIsBounded(t *testing.T) {
	var ctrs counters
	ep := &endpoint{addr: blackhole(t), fresh: &freshness{}, ctrs: &ctrs}
	start := time.Now()
	dialed := make(chan error, 1)
	go func() {
		_, err := ep.acquire(1)
		dialed <- err
	}()
	// A request picking its endpoint while the dial is in flight waits for
	// the lock, and gets it back within the bound.
	time.Sleep(50 * time.Millisecond)
	ep.isDown()
	if waited := time.Since(start); waited > dialTimeout+2*time.Second {
		t.Fatalf("isDown waited %v behind a dial to a black hole", waited)
	}
	if err := <-dialed; err == nil {
		t.Fatal("dialing a black hole succeeded")
	}
	ep.mu.Lock()
	down := ep.down
	ep.mu.Unlock()
	if !down {
		t.Fatal("a timed-out dial did not mark the endpoint down")
	}
}

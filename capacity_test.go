// Whole-index cache test: a party's decoded-node cache has no capacity,
// so it holds the party's whole index however large, and a warmed sweep
// over the key domain is served without a single miss. Both ways a party
// is built are checked: NewSystem (the paper's figures) and
// core.LoadSnapshot over a snapshot's bytes (every checkpoint reopen,
// replica bootstrap and replica reset).
package sae

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

// The caches hold index nodes only (heap pages are served from their page
// bytes), and the TE's XB-Tree is the densest index at 120 entries per
// leaf: thrashN records give it ~1 500 nodes, enough that a cache
// holding fewer than the whole index would miss on every sweep.
const thrashN = 180_000

// sweep runs one full pass of narrow verified range queries covering the
// whole key domain. The queries' boundaries fall every ~5 500 keys,
// closer than the ~6 700 keys an XB-Tree leaf spans, so the token
// descents touch every TE leaf.
func sweep(t *testing.T, sys *core.System) {
	t.Helper()
	const width = 11_000 // ~200 records per query
	for lo := 0; lo < record.KeyDomain; lo += width {
		hi := min(lo+width-1, record.KeyDomain-1)
		out, err := sys.Query(record.Range{Lo: record.Key(lo), Hi: record.Key(hi)})
		if err != nil {
			t.Fatal(err)
		}
		if out.VerifyErr != nil {
			t.Fatal(out.VerifyErr)
		}
	}
}

// misses sums both parties' cache misses.
func misses(sys *core.System) int64 {
	return sys.SP.CacheStats().Misses + sys.TE.CacheStats().Misses
}

func TestSizedCacheStopsThrashing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 180K-record deployments")
	}
	ds, err := workload.Generate(workload.UNF, thrashN, 314)
	if err != nil {
		t.Fatal(err)
	}
	built, err := core.NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's header (magic, zero sequence and watermark, record
	// count), then the records' encodings.
	hdr := binary.BigEndian.AppendUint64(append([]byte("SAECKP03"), make([]byte, 16)...), uint64(thrashN))
	rebuilt, _, err := core.LoadSnapshot(io.MultiReader(bytes.NewReader(hdr), record.ReaderOf(ds.Records)),
		int64(len(hdr)+thrashN*record.Size))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *core.System
	}{{"NewSystem", built}, {"LoadSnapshot", rebuilt}} {
		sweep(t, c.sys) // warm
		warm := misses(c.sys)
		sweep(t, c.sys)
		if d := misses(c.sys) - warm; d != 0 {
			t.Errorf("%s: the caches missed %d times on a warmed sweep", c.name, d)
		}
	}
}

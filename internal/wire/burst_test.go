package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"sae/internal/core"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/workload"
)

// burstParityQueries builds a query mix that exercises every group
// code path: ordinary ranges, empty results (so lazily opened sections
// must still emit their count slots), point ranges and the full keyspace
// tail.
func burstParityQueries(n int) []record.Range {
	qs := workload.Queries(n, workload.DefaultExtent, 91)
	qs = append(qs, record.Range{Lo: record.KeyDomain + 1, Hi: record.KeyDomain + 10}) // empty
	qs = append(qs, record.Range{Lo: 0, Hi: 0})                                        // point, likely empty
	qs = append(qs, record.Range{Lo: record.KeyDomain / 2, Hi: record.KeyDomain / 2})
	return qs
}

// TestServeParity pins the one serve path at the wire level: for every
// group row, on every role that serves it, at every group size — a lone
// request, a pair, bursts past maxBurst that the server must split
// without dropping or reordering responses — the response payload is
// bit-identical to what the in-process reference parties' materializing
// paths (QueryCtx, GenerateVTCtx, AggregateCtx, AggTokenCtx) produce for
// the same dataset, including empty results.
func TestServeParity(t *testing.T) {
	r := launchRoles(t, 4000)
	qs := burstParityQueries(97) // 100 queries > maxBurst
	sp, te, primary, rep := r.sp.Addr(), r.te.Addr(), r.primary.Addr(), r.replica.Addr()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
	}
	rows := []struct {
		req, resp MsgType
		servers   []string
		want      func(q record.Range) []byte
	}{
		{MsgQuery, MsgResult, []string{sp, primary, rep}, func(q record.Range) []byte {
			recs, _, err := r.refSP.QueryCtx(exec.NewContext(), q)
			must(err)
			return EncodeRecords(recs)
		}},
		{MsgVTRequest, MsgVT, []string{te, primary, rep}, func(q record.Range) []byte {
			vt, _, err := r.refTE.GenerateVTCtx(exec.NewContext(), q)
			must(err)
			return vt[:]
		}},
		{MsgAggQuery, MsgAggResult, []string{sp, primary, rep}, func(q record.Range) []byte {
			a, _, err := r.refSP.AggregateCtx(exec.NewContext(), q)
			must(err)
			return a.AppendTo(nil)
		}},
		{MsgAggTokenReq, MsgAggToken, []string{te, primary, rep}, func(q record.Range) []byte {
			tok, _, err := r.refTE.AggTokenCtx(exec.NewContext(), q)
			must(err)
			return tok.AppendTo(nil)
		}},
		{MsgVerifiedQuery, MsgVerifiedResult, []string{primary, rep}, func(q record.Range) []byte {
			recs, _, err := r.refSP.QueryCtx(exec.NewContext(), q)
			must(err)
			vt, _, err := r.refTE.GenerateVTCtx(exec.NewContext(), q)
			must(err)
			out := binary.BigEndian.AppendUint64(nil, 0) // plan epoch
			out = binary.BigEndian.AppendUint64(out, r.sys.Seq())
			out = append(out, vt[:]...)
			return append(out, EncodeRecords(recs)...)
		}},
	}
	for _, row := range rows {
		want := make([][]byte, len(qs))
		for i, q := range qs {
			want[i] = row.want(q)
		}
		reqs := rangeFrames(row.req, qs)
		for _, addr := range row.servers {
			// len(qs) > maxBurst: one gather write the server must split.
			for _, g := range append(groupSizes, len(qs)) {
				for i, resp := range pipeline(t, addr, reqs, g) {
					if resp.Type != row.resp {
						t.Fatalf("%s at %s, groups of %d, query %d (%v): got %s %.80q",
							FrameName(row.req), addr, g, i, qs[i], FrameName(resp.Type), resp.Payload)
					}
					if !bytes.Equal(resp.Payload, want[i]) {
						t.Fatalf("%s at %s, groups of %d, query %d (%v): payload (%d bytes) != reference (%d bytes)",
							FrameName(row.req), addr, g, i, qs[i], len(resp.Payload), len(want[i]))
					}
				}
			}
		}
	}
}

// TestBurstVerifiedQuery runs the full verified protocol through the
// client stubs' pipelined forms at every group size, against the
// stand-alone pair and against a primary and a replica serving both
// halves: every result must verify and match a linear scan.
func TestBurstVerifiedQuery(t *testing.T) {
	r := launchRoles(t, 4000)
	qs := burstParityQueries(20)
	for _, pair := range [][2]string{
		{r.sp.Addr(), r.te.Addr()},
		{r.primary.Addr(), r.primary.Addr()},
		{r.replica.Addr(), r.replica.Addr()},
	} {
		client, err := DialVerifying(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groupSizes {
			for lo := 0; lo < len(qs); lo += g {
				group := qs[lo:min(lo+g, len(qs))]
				results, err := client.QueryBurst(group)
				if err != nil {
					t.Fatalf("QueryBurst at %s, groups of %d: %v", pair[0], g, err)
				}
				for i, q := range group {
					if want := expectCount(r.ds, q); len(results[i]) != want {
						t.Fatalf("groups of %d, query %v: %d records, want %d", g, q, len(results[i]), want)
					}
				}
			}
		}
		client.Close()
	}
}

// TestBurstMixedFrames pipelines group-row queries interleaved with
// own-row frames (shard-map requests) in one gather write: the lane
// must group the queries, the shard-map requests run on their own
// goroutines, and every id must be answered correctly.
func TestBurstMixedFrames(t *testing.T) {
	spSrv, _, ds := launchSAE(t, 3000)
	c, err := Dial(spSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := workload.Queries(6, workload.DefaultExtent, 92)
	reqs := make([]Frame, 0, len(qs)+3)
	for i, q := range qs {
		if i%2 == 0 {
			reqs = append(reqs, Frame{Type: MsgShardMapReq})
		}
		reqs = append(reqs, Frame{Type: MsgQuery, Payload: EncodeRange(q)})
	}
	resps := slices.Clone(reqs)
	if err := c.exchange(context.Background(), resps); err != nil {
		t.Fatalf("mixed group: %v", err)
	}
	qi := 0
	for i, r := range resps {
		switch reqs[i].Type {
		case MsgShardMapReq:
			if r.Type != MsgShardMap {
				t.Fatalf("frame %d: got type %d, want shard map", i, r.Type)
			}
		case MsgQuery:
			if r.Type != MsgResult {
				t.Fatalf("frame %d: got type %d, want result", i, r.Type)
			}
			recs, rest, err := DecodeRecords(r.Payload)
			if err != nil || len(rest) != 0 {
				t.Fatalf("frame %d: bad result payload: %v", i, err)
			}
			if want := expectCount(ds, qs[qi]); len(recs) != want {
				t.Fatalf("query %v: %d records, want %d", qs[qi], len(recs), want)
			}
			qi++
		}
	}
}

// TestBurstMalformedFrame sends a burst containing one malformed query:
// the bad frame is refused at dispatch with its own error response, the
// good frames are grouped and get real results with no fallback — and
// the connection stays healthy for the next burst.
func TestBurstMalformedFrame(t *testing.T) {
	spSrv, _, _ := launchSAE(t, 2000)
	qs := workload.Queries(3, workload.DefaultExtent, 93)
	reqs := []Frame{
		{Type: MsgQuery, Payload: EncodeRange(qs[0])},
		{Type: MsgQuery, Payload: []byte{1, 2, 3}}, // malformed range
		{Type: MsgQuery, Payload: EncodeRange(qs[1])},
		// A second burst on the same connection.
		{Type: MsgQuery, Payload: EncodeRange(qs[2])},
		{Type: MsgQuery, Payload: EncodeRange(qs[0])},
	}
	before := ReadBurstCounters().Fallbacks
	resps := pipeline(t, spSrv.Addr(), reqs, 3)
	if got := ReadBurstCounters().Fallbacks - before; got != 0 {
		t.Errorf("a malformed frame caused %d group fallbacks; it must be refused before grouping", got)
	}
	for i, r := range resps {
		if i == 1 {
			if r.Type != MsgErr || !strings.Contains(string(r.Payload), "range payload of 3 bytes") {
				t.Fatalf("malformed frame: got %s %q", FrameName(r.Type), r.Payload)
			}
		} else if r.Type != MsgResult {
			t.Fatalf("frame %d: got %s %.80q, want a result", i, FrameName(r.Type), r.Payload)
		}
	}
}

// poisonStore is a page store whose reads and borrows of one page fail
// once armed; until then it records every page read.
type poisonStore struct {
	pagestore.Store
	mu   sync.Mutex
	read map[pagestore.PageID]bool
	bad  pagestore.PageID
	arm  bool
}

var errPoisoned = errors.New("poisoned page")

func (s *poisonStore) Read(id pagestore.PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arm && id == s.bad {
		return errPoisoned
	}
	s.read[id] = true
	return s.Store.Read(id, buf)
}

func (s *poisonStore) Borrow(id pagestore.PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arm && id == s.bad {
		return nil, errPoisoned
	}
	s.read[id] = true
	return s.Store.Borrow(id)
}

// TestBurstFallbackOnProviderError sends a burst whose provider pass
// fails (one query needs a page the SP's store cannot read): the group
// falls back to groups of one, so the bad query gets exactly its own
// error and the others answers byte-identical to the same queries sent
// alone.
func TestBurstFallbackOnProviderError(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 2000, 97)
	if err != nil {
		t.Fatal(err)
	}
	store := &poisonStore{Store: pagestore.NewMem(), read: make(map[pagestore.PageID]bool)}
	sp := core.NewServiceProvider(store)
	if err := sp.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	qs := workload.Queries(4, workload.DefaultExtent, 97)
	const bad = 2
	// Poison a page only the bad query reads. Every query runs once first,
	// so the decoded-node cache holds the index nodes they touch and the
	// pages recorded afterwards are the ones a query reads from the store
	// on every run.
	pagesOf := func(q record.Range) map[pagestore.PageID]bool {
		clear(store.read)
		if _, _, err := sp.QueryCtx(exec.NewContext(), q); err != nil {
			t.Fatal(err)
		}
		return maps.Clone(store.read)
	}
	for _, q := range qs {
		pagesOf(q)
	}
	others := map[pagestore.PageID]bool{}
	for i, q := range qs {
		if i != bad {
			maps.Copy(others, pagesOf(q))
		}
	}
	var own []pagestore.PageID
	for id := range pagesOf(qs[bad]) {
		if !others[id] {
			own = append(own, id)
		}
	}
	if len(own) == 0 {
		t.Fatal("the bad query reads no page of its own")
	}
	store.bad, store.arm = slices.Min(own), true
	srv, err := ServeSP("127.0.0.1:0", sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reqs := rangeFrames(MsgQuery, qs)
	alone := pipeline(t, srv.Addr(), reqs, 1)
	before := ReadBurstCounters().Fallbacks
	burst := pipeline(t, srv.Addr(), reqs, len(reqs))
	if got := ReadBurstCounters().Fallbacks - before; got != 1 {
		t.Errorf("Fallbacks rose by %d for one rejected group, want 1", got)
	}
	for i := range reqs {
		if burst[i].Type != alone[i].Type || !bytes.Equal(burst[i].Payload, alone[i].Payload) {
			t.Fatalf("query %d: in the burst got %s (%d bytes), alone %s (%d bytes)", i,
				FrameName(burst[i].Type), len(burst[i].Payload), FrameName(alone[i].Type), len(alone[i].Payload))
		}
		if i != bad && burst[i].Type != MsgResult {
			t.Fatalf("query %d beside the bad one: got %s %.80q", i, FrameName(burst[i].Type), burst[i].Payload)
		}
	}
	if burst[bad].Type != MsgErr || !strings.Contains(string(burst[bad].Payload), errPoisoned.Error()) {
		t.Fatalf("bad query: got %s %q", FrameName(burst[bad].Type), burst[bad].Payload)
	}
}

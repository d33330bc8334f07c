package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sae/internal/agg"
	"sae/internal/record"
)

// oracleEvery is the sampling rate of the brute-force cross-check: one
// answer in this many is compared against the oracle (every answer is
// client-verified regardless).
const oracleEvery = 64

// writtenIDBase is where the harness's own record ids start, far above
// any id the dataset generator assigns.
const writtenIDBase = record.ID(1) << 40

// oracle answers queries by brute force over the dataset the harness
// regenerates from the dataset seed, plus the harness's own writes. It
// shares no code path with the servers beyond the dataset generator.
type oracle struct {
	keys []record.Key // dataset, ascending by (key, id)
	ids  []record.ID

	epoch time.Time

	mu     sync.Mutex
	writes map[record.ID]*writeRec
}

// writeRec is the life of one record the harness inserted. Times are
// offsets from the oracle's epoch; zero means "has not happened".
type writeRec struct {
	key                                  record.Key
	insSubmit, insAck, delSubmit, delAck time.Duration
}

func newOracle(dataset []record.Record) *oracle {
	o := &oracle{
		keys:   make([]record.Key, len(dataset)),
		ids:    make([]record.ID, len(dataset)),
		epoch:  time.Now(),
		writes: make(map[record.ID]*writeRec),
	}
	for i := range dataset {
		o.keys[i], o.ids[i] = dataset[i].Key, dataset[i].ID
	}
	return o
}

// now is a strictly positive offset, so zero can mean "never".
func (o *oracle) now() time.Duration { return time.Since(o.epoch) + 1 }

// baseRange returns the dataset's index interval [lo, hi) covered by q.
func (o *oracle) baseRange(q record.Range) (int, int) {
	lo := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= q.Lo })
	hi := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] > q.Hi })
	return lo, hi
}

// countIn returns how many dataset records fall in q.
func (o *oracle) countIn(q record.Range) int {
	lo, hi := o.baseRange(q)
	return hi - lo
}

// checkAgg compares a verified aggregate with a fold over the dataset.
// Aggregates are only issued by read-only workloads, so writes do not
// enter.
func (o *oracle) checkAgg(q record.Range, got agg.Agg) error {
	lo, hi := o.baseRange(q)
	var want agg.Agg
	for i := lo; i < hi; i++ {
		want = want.Add(o.keys[i])
	}
	if want = want.Normalize(); got != want {
		return fmt.Errorf("oracle: aggregate %v = %v, brute force says %v", q, got, want)
	}
	return nil
}

// checkRange compares a verified range answer, sent and received at the
// given oracle times, with the dataset plus the harness's writes.
//
// Dataset records are never deleted, so exactly those in q must appear.
// A written record MUST appear if its insert was acked before the query
// was sent and no delete of it was submitted before the answer arrived;
// it MAY appear only if its insert was submitted before the answer
// arrived and its delete was not acked before the query was sent. Writes
// in flight across the query are free to fall either way.
func (o *oracle) checkRange(q record.Range, got []record.Record, sent, recvd time.Duration) error {
	lo, hi := o.baseRange(q)
	want := make(map[record.ID]record.Key, hi-lo)
	for i := lo; i < hi; i++ {
		want[o.ids[i]] = o.keys[i]
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	seenWritten := make(map[record.ID]bool)
	for i := range got {
		id, key := got[i].ID, got[i].Key
		if i > 0 && key < got[i-1].Key {
			return fmt.Errorf("oracle: %v answer out of key order at record %d", q, i)
		}
		if id < writtenIDBase {
			k, ok := want[id]
			if !ok || k != key {
				return fmt.Errorf("oracle: %v answer holds record id=%d key=%d the dataset does not place there", q, id, key)
			}
			delete(want, id)
			continue
		}
		w := o.writes[id]
		switch {
		case w == nil || w.key != key:
			return fmt.Errorf("oracle: %v answer holds record id=%d key=%d nobody wrote", q, id, key)
		case seenWritten[id]:
			return fmt.Errorf("oracle: %v answer holds record id=%d twice", q, id)
		case w.insSubmit > recvd:
			return fmt.Errorf("oracle: %v answer holds record id=%d before its insert was submitted", q, id)
		case w.delAck != 0 && w.delAck < sent:
			return fmt.Errorf("oracle: %v answer holds record id=%d after its delete was acked", q, id)
		}
		seenWritten[id] = true
	}
	if len(want) != 0 {
		return fmt.Errorf("oracle: %v answer misses %d of the %d dataset records in range", q, len(want), hi-lo)
	}
	for id, w := range o.writes {
		if !q.Contains(w.key) || seenWritten[id] {
			continue
		}
		if w.insAck != 0 && w.insAck < sent && (w.delSubmit == 0 || w.delSubmit > recvd) {
			return fmt.Errorf("oracle: %v answer misses record id=%d key=%d whose insert was acked before the query", q, id, w.key)
		}
	}
	return nil
}

// The write path reports each batch's life to the oracle.

func (o *oracle) insertSubmitted(recs []record.Record) {
	t := o.now()
	o.mu.Lock()
	for i := range recs {
		o.writes[recs[i].ID] = &writeRec{key: recs[i].Key, insSubmit: t}
	}
	o.mu.Unlock()
}

func (o *oracle) insertAcked(recs []record.Record) {
	t := o.now()
	o.mu.Lock()
	for i := range recs {
		o.writes[recs[i].ID].insAck = t
	}
	o.mu.Unlock()
}

func (o *oracle) deleteSubmitted(ids []record.ID) {
	t := o.now()
	o.mu.Lock()
	for _, id := range ids {
		o.writes[id].delSubmit = t
	}
	o.mu.Unlock()
}

func (o *oracle) deleteAcked(ids []record.ID) {
	t := o.now()
	o.mu.Lock()
	for _, id := range ids {
		o.writes[id].delAck = t
	}
	o.mu.Unlock()
}

// liveWritten counts acked inserts minus acked deletes.
func (o *oracle) liveWritten() (inserted, deleted int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, w := range o.writes {
		if w.insAck != 0 {
			inserted++
		}
		if w.delAck != 0 {
			deleted++
		}
	}
	return inserted, deleted
}

package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"sae/internal/record"
)

// The crash harness (cmd/saenet -role crashwriter/crashverify and the
// kill -9 tests) records every update round trip in a plain-text ack
// log next to the durable directory. The writer's discipline gives the
// log its meaning:
//
//	P k1,k2,...   intent: an insert batch is about to be submitted
//	I id:k,...    the batch above was ACKED (ids assigned by the owner)
//	Q id1,id2,... intent: a delete batch is about to be submitted
//	D id1,id2,... the delete batch above was acked
//
// Each line is fsynced before the writer proceeds, so after kill -9 the
// log ends in one of: a confirmed ack (nothing in flight), a bare
// intent (killed mid-commit — the batch may be fully durable or fully
// absent, never partial), or a torn line (ignored; its submission never
// started or equals the bare-intent case one line earlier).
//
// VerifyRecovered replays this contract against a reopened system: every
// acked update must be present, every acked delete absent, and the at
// most one in-flight submission must be all-or-nothing.

// AckLog is the writer side: an append-only, fsync-per-line record of
// intents and acks.
type AckLog struct {
	f *os.File
}

// OpenAckLog opens (creating or appending) the ack log at path.
func OpenAckLog(path string) (*AckLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening ack log: %w", err)
	}
	return &AckLog{f: f}, nil
}

func (l *AckLog) line(s string) error {
	if _, err := l.f.WriteString(s + "\n"); err != nil {
		return err
	}
	return l.f.Sync()
}

// IntendInserts durably records that a batch with these keys is about to
// be submitted. Call before InsertBatch.
func (l *AckLog) IntendInserts(keys []record.Key) error { return l.line("P " + joinInts(keys)) }

// AckInserts durably records a batch the committer acked.
func (l *AckLog) AckInserts(recs []record.Record) error {
	parts := make([]string, len(recs))
	for i := range recs {
		parts[i] = fmt.Sprintf("%d:%d", recs[i].ID, recs[i].Key)
	}
	return l.line("I " + strings.Join(parts, ","))
}

// IntendDeletes durably records a delete batch about to be submitted.
func (l *AckLog) IntendDeletes(ids []record.ID) error { return l.line("Q " + joinInts(ids)) }

// AckDeletes durably records an acked delete batch.
func (l *AckLog) AckDeletes(ids []record.ID) error { return l.line("D " + joinInts(ids)) }

// Close closes the log file.
func (l *AckLog) Close() error { return l.f.Close() }

// AckedState is the reader side: the exact update history the writer
// acked, plus the at-most-one submission that was in flight at the kill.
type AckedState struct {
	// Inserted maps every acked insert id to its key; ids acked deleted
	// are removed again, so this is the acked live delta over the seed.
	Inserted map[record.ID]record.Key
	// Deleted holds acked deletes of seed records (ids not in Inserted's
	// history), which must be absent after recovery.
	Deleted map[record.ID]bool
	// PendingInsertKeys is set when the log ends in a bare insert intent:
	// a batch with exactly these keys may be fully present or fully
	// absent.
	PendingInsertKeys []record.Key
	// PendingDeleteIDs is set when the log ends in a bare delete intent.
	PendingDeleteIDs []record.ID
}

// ReadAckLog parses the ack log at path. A torn final line (killed mid
// write) is ignored; an intent line with no matching ack is surfaced as
// the pending submission.
func ReadAckLog(path string) (*AckedState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading ack log: %w", err)
	}
	st := &AckedState{
		Inserted: make(map[record.ID]record.Key),
		Deleted:  make(map[record.ID]bool),
	}
	lines := strings.Split(string(data), "\n")
	// Without a trailing newline the last element is a torn line (killed
	// mid-write); with one it is "". Either way it carries no confirmed
	// entry, so it is dropped rather than parsed.
	lines = lines[:len(lines)-1]
	for ln, line := range lines {
		if line == "" {
			continue
		}
		kind, rest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("core: ack log line %d: no payload", ln+1)
		}
		switch kind {
		case "P":
			keys, err := parseInts[record.Key](rest)
			if err != nil {
				return nil, fmt.Errorf("core: ack log line %d: %w", ln+1, err)
			}
			st.PendingInsertKeys = keys
		case "I":
			for _, pair := range strings.Split(rest, ",") {
				idS, keyS, ok := strings.Cut(pair, ":")
				if !ok {
					return nil, fmt.Errorf("core: ack log line %d: bad id:key %q", ln+1, pair)
				}
				id, err1 := strconv.ParseInt(idS, 10, 64)
				key, err2 := strconv.Atoi(keyS)
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("core: ack log line %d: bad id:key %q", ln+1, pair)
				}
				st.Inserted[record.ID(id)] = record.Key(key)
			}
			st.PendingInsertKeys = nil
		case "Q":
			ids, err := parseInts[record.ID](rest)
			if err != nil {
				return nil, fmt.Errorf("core: ack log line %d: %w", ln+1, err)
			}
			st.PendingDeleteIDs = ids
		case "D":
			ids, err := parseInts[record.ID](rest)
			if err != nil {
				return nil, fmt.Errorf("core: ack log line %d: %w", ln+1, err)
			}
			for _, id := range ids {
				if _, ok := st.Inserted[id]; ok {
					delete(st.Inserted, id)
				} else {
					st.Deleted[id] = true
				}
			}
			st.PendingDeleteIDs = nil
		default:
			return nil, fmt.Errorf("core: ack log line %d: unknown kind %q", ln+1, kind)
		}
	}
	return st, nil
}

// joinInts writes keys or ids as an ack log line's comma-separated list.
func joinInts[T record.Key | record.ID](vs []T) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(uint64(v), 10)
	}
	return strings.Join(parts, ",")
}

// parseInts reads a list joinInts wrote.
func parseInts[T record.Key | record.ID](s string) ([]T, error) {
	parts := strings.Split(s, ",")
	vs := make([]T, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		vs[i] = T(v)
	}
	return vs, nil
}

// Reconciliation reports how the one in-flight submission resolved, so
// the ack log can be settled (Reconcile) before another writer cycle
// appends to it.
type Reconciliation struct {
	// Extras holds the pending insert batch's records (id + key) when the
	// kill landed after the group's WAL fsync but before the ack.
	Extras []record.Record
	// PendingDeletesApplied is true when the pending delete batch made it
	// into the WAL.
	PendingDeletesApplied bool
}

// Reconcile appends ack lines for in-flight submissions that turned out
// durable, making the log agree with the recovered state.
func (l *AckLog) Reconcile(acked *AckedState, r *Reconciliation) error {
	if r.PendingDeletesApplied && len(acked.PendingDeleteIDs) > 0 {
		if err := l.AckDeletes(acked.PendingDeleteIDs); err != nil {
			return err
		}
	}
	if len(r.Extras) > 0 {
		if err := l.AckInserts(r.Extras); err != nil {
			return err
		}
	}
	return nil
}

// VerifyRecovered checks a reopened system against the seed dataset and
// the ack log's contract:
//
//  1. the full-range query verifies (VT matches the result);
//  2. no acked update is lost: every seed record not acked-deleted and
//     every acked insert is present with its key;
//  3. no unacked update is partially visible: any extra records must be
//     exactly the one pending insert batch (all of it), and a pending
//     delete batch is either fully applied or fully untouched.
//
// It returns how the in-flight submission resolved for Reconcile.
func VerifyRecovered(ds *DurableSystem, seed []record.Record, acked *AckedState) (*Reconciliation, error) {
	out, err := ds.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		return nil, fmt.Errorf("full-range query: %w", err)
	}
	if out.VerifyErr != nil {
		return nil, fmt.Errorf("recovered state failed verification: %w", out.VerifyErr)
	}
	present := make(map[record.ID]record.Key, len(out.Result))
	for i := range out.Result {
		present[out.Result[i].ID] = out.Result[i].Key
	}

	expected := make(map[record.ID]record.Key, len(seed)+len(acked.Inserted))
	for i := range seed {
		if !acked.Deleted[seed[i].ID] {
			expected[seed[i].ID] = seed[i].Key
		}
	}
	for id, key := range acked.Inserted {
		expected[id] = key
	}

	pendingDel := make(map[record.ID]bool, len(acked.PendingDeleteIDs))
	for _, id := range acked.PendingDeleteIDs {
		pendingDel[id] = true
	}

	// Acked updates must all have survived — except that a pending delete
	// batch is allowed to have removed its targets, all-or-nothing.
	missing := 0
	for id, key := range expected {
		got, ok := present[id]
		if ok && got != key {
			return nil, fmt.Errorf("record %d recovered with key %d, want %d", id, got, key)
		}
		if !ok {
			if !pendingDel[id] {
				return nil, fmt.Errorf("acked record %d (key %d) lost in recovery", id, key)
			}
			missing++
		}
	}
	if missing != 0 && missing != len(acked.PendingDeleteIDs) {
		return nil, fmt.Errorf("pending delete batch partially applied: %d of %d targets gone",
			missing, len(acked.PendingDeleteIDs))
	}

	rec := &Reconciliation{PendingDeletesApplied: missing > 0}

	// Extra records must be exactly the pending insert batch, in full.
	for id, key := range present {
		if _, ok := expected[id]; !ok {
			rec.Extras = append(rec.Extras, record.Record{ID: id, Key: key})
		}
	}
	if len(rec.Extras) == 0 {
		return rec, nil
	}
	if len(rec.Extras) != len(acked.PendingInsertKeys) {
		return nil, fmt.Errorf("pending insert batch partially visible: %d extra records, intent had %d keys",
			len(rec.Extras), len(acked.PendingInsertKeys))
	}
	want := make(map[record.Key]int)
	for _, k := range acked.PendingInsertKeys {
		want[k]++
	}
	for i := range rec.Extras {
		k := rec.Extras[i].Key
		want[k]--
		if want[k] < 0 {
			return nil, fmt.Errorf("extra record with key %d not in the pending intent", k)
		}
	}
	return rec, nil
}

// RunCrashWriter drives continuous acked update batches through ds,
// logging intents and acks to the ack log at ackPath. rounds <= 0 runs
// until the process dies — the crash harness kills it with SIGKILL
// mid-commit and then audits the directory against the ack log.
func RunCrashWriter(ds *DurableSystem, ackPath string, batch, rounds int, seed int64) error {
	if batch <= 0 {
		batch = 16
	}
	log, err := OpenAckLog(ackPath)
	if err != nil {
		return err
	}
	defer log.Close()
	// A deterministic key walk stands in for math/rand: the harness only
	// needs varied keys, not statistical randomness.
	next := uint64(seed)*2654435761 + 1
	var liveIDs []record.ID
	for round := 0; rounds <= 0 || round < rounds; round++ {
		keys := make([]record.Key, batch)
		for i := range keys {
			next = next*6364136223846793005 + 1442695040888963407
			keys[i] = record.Key(next % uint64(record.KeyDomain))
		}
		if err := log.IntendInserts(keys); err != nil {
			return err
		}
		recs, err := ds.InsertBatch(keys)
		if err != nil {
			return fmt.Errorf("crashwriter round %d insert: %w", round, err)
		}
		if err := log.AckInserts(recs); err != nil {
			return err
		}
		for i := range recs {
			liveIDs = append(liveIDs, recs[i].ID)
		}
		if round%3 == 2 && len(liveIDs) >= batch {
			ids := append([]record.ID(nil), liveIDs[:batch/2]...)
			liveIDs = liveIDs[batch/2:]
			if err := log.IntendDeletes(ids); err != nil {
				return err
			}
			if err := ds.DeleteBatch(ids); err != nil {
				return fmt.Errorf("crashwriter round %d delete: %w", round, err)
			}
			if err := log.AckDeletes(ids); err != nil {
				return err
			}
		}
		if round%25 == 24 {
			if err := ds.Checkpoint(); err != nil {
				return fmt.Errorf("crashwriter round %d checkpoint: %w", round, err)
			}
		}
	}
	return nil
}

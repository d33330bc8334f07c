package core

import (
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sae/internal/record"
	"sae/internal/workload"
)

const (
	crashSeedN    = 2_000
	crashSeedSeed = 7
	crashBatch    = 16
)

func crashSeedRecords(t *testing.T) []record.Record {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, crashSeedN, crashSeedSeed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds.Records
}

// crashChild is the process the harness kills: it opens the durable
// directory and writes acked batches forever.
func crashChild(dir string) {
	ds, err := workload.Generate(workload.UNF, crashSeedN, crashSeedSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	sys, err := OpenDurableSystem(dir, ds.Records, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	if err := RunCrashWriter(sys, filepath.Join(dir, "acked.log"), crashBatch, 0, 99); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
}

// TestCrashRecoveryKillMidGroup is the end-to-end durability criterion:
// a child process streams acked update groups into a durable directory,
// the parent kills it with SIGKILL mid-commit, reopens the directory and
// audits it against the child's fsynced ack log — every acked update
// present, no unacked update partially visible, the whole range
// verifying against the TE's token. Two kill cycles run back to back so
// the second recovery also exercises reopening a crashed-and-recovered
// directory.
func TestCrashRecoveryKillMidGroup(t *testing.T) {
	if dir := os.Getenv("SAE_CRASH_CHILD_DIR"); dir != "" {
		crashChild(dir)
		return
	}
	dir := t.TempDir()
	ackPath := filepath.Join(dir, "acked.log")
	seed := crashSeedRecords(t)

	for cycle := 0; cycle < 2; cycle++ {
		ackedBefore := ackLines(t, ackPath)
		cmd := osexec.Command(os.Args[0], "-test.run=TestCrashRecoveryKillMidGroup$")
		cmd.Env = append(os.Environ(), "SAE_CRASH_CHILD_DIR="+dir)
		var childErr strings.Builder
		cmd.Stderr = &childErr
		if err := cmd.Start(); err != nil {
			t.Fatalf("cycle %d: starting crash child: %v", cycle, err)
		}
		// Let the child commit a few dozen groups, then kill -9.
		deadline := time.Now().Add(30 * time.Second)
		for ackLines(t, ackPath) < ackedBefore+30 {
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("cycle %d: child made no progress; stderr:\n%s", cycle, childErr.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("cycle %d: kill: %v", cycle, err)
		}
		cmd.Wait()

		sys, err := OpenDurableSystem(dir, nil, 0)
		if err != nil {
			t.Fatalf("cycle %d: reopening after kill: %v", cycle, err)
		}
		acked, err := ReadAckLog(ackPath)
		if err != nil {
			t.Fatalf("cycle %d: reading ack log: %v", cycle, err)
		}
		rec, err := VerifyRecovered(sys, seed, acked)
		if err != nil {
			t.Fatalf("cycle %d: recovery audit failed: %v", cycle, err)
		}
		// Settle the in-flight submission (if its group reached the WAL)
		// so the next cycle's audit starts from a consistent log.
		log, err := OpenAckLog(ackPath)
		if err != nil {
			t.Fatalf("cycle %d: reopening ack log: %v", cycle, err)
		}
		if err := log.Reconcile(acked, rec); err != nil {
			t.Fatalf("cycle %d: reconcile: %v", cycle, err)
		}
		log.Close()

		// The recovered system must accept further verified updates.
		if _, err := sys.InsertBatch([]record.Key{11, 22, 33}); err != nil {
			t.Fatalf("cycle %d: post-recovery insert: %v", cycle, err)
		}
		out, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
		if err != nil || out.VerifyErr != nil {
			t.Fatalf("cycle %d: post-recovery query: %v / %v", cycle, err, out.VerifyErr)
		}
		if err := sys.DeleteBatch(idsOf(out.Result[len(out.Result)-3:])); err != nil {
			t.Fatalf("cycle %d: post-recovery delete: %v", cycle, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
		// The post-recovery updates above are not in the ack log; settle
		// them too so the next cycle's expected state matches.
		reconcileObserved(t, dir, ackPath, seed)
	}
}

// ackLines counts complete lines in the ack log (0 when absent).
func ackLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatalf("reading ack log: %v", err)
	}
	return strings.Count(string(data), "\n")
}

// reconcileObserved reopens the directory read-only and appends ack
// lines for any live records the log does not account for (and deletes
// it thinks are live but are not), bringing the log in sync with the
// directory's actual state.
func reconcileObserved(t *testing.T, dir, ackPath string, seed []record.Record) {
	t.Helper()
	sys, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("reconcile reopen: %v", err)
	}
	defer sys.Close()
	out, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("reconcile query: %v / %v", err, out.VerifyErr)
	}
	acked, err := ReadAckLog(ackPath)
	if err != nil {
		t.Fatalf("reconcile read: %v", err)
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
	present := make(map[record.ID]bool, len(out.Result))
	var extras []record.Record
	for i := range out.Result {
		present[out.Result[i].ID] = true
		if _, ok := expected[out.Result[i].ID]; !ok {
			extras = append(extras, out.Result[i])
		}
	}
	var gone []record.ID
	for id := range expected {
		if !present[id] {
			gone = append(gone, id)
		}
	}
	log, err := OpenAckLog(ackPath)
	if err != nil {
		t.Fatalf("reconcile append: %v", err)
	}
	defer log.Close()
	if len(extras) > 0 {
		if err := log.AckInserts(extras); err != nil {
			t.Fatalf("reconcile extras: %v", err)
		}
	}
	if len(gone) > 0 {
		if err := log.AckDeletes(gone); err != nil {
			t.Fatalf("reconcile gone: %v", err)
		}
	}
}

// TestCheckpointCrashWindow simulates dying between checkpoint publish
// and WAL reset: the new checkpoint is on disk, the log still holds the
// groups it folded in. Reopening must not double-apply them.
func TestCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	seed := crashSeedRecords(t)
	sys, err := OpenDurableSystem(dir, seed, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	keys := make([]record.Key, 40)
	for i := range keys {
		keys[i] = record.Key((i * 2999) % record.KeyDomain)
	}
	if _, err := sys.InsertBatch(keys); err != nil {
		t.Fatalf("insert: %v", err)
	}
	before, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || before.VerifyErr != nil {
		t.Fatalf("pre-crash query: %v / %v", err, before.VerifyErr)
	}

	// Publish the checkpoint exactly as Checkpoint() would, then "die"
	// before the WAL reset.
	snap, err := sys.SnapshotRecords()
	if err != nil {
		t.Fatalf("checkpoint state: %v", err)
	}
	if err := writeCheckpoint(dir, snap); err != nil {
		t.Fatalf("checkpoint publish: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.ReplayedGroups(); got != 0 {
		t.Fatalf("replayed %d groups already folded into the checkpoint", got)
	}
	after, err := re.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || after.VerifyErr != nil {
		t.Fatalf("post-crash query: %v / %v", err, after.VerifyErr)
	}
	if after.VT != before.VT {
		t.Fatalf("VT diverged across the checkpoint crash window: %x vs %x", after.VT, before.VT)
	}
	if len(after.Result) != len(before.Result) {
		t.Fatalf("%d records after reopen, want %d (double-apply?)", len(after.Result), len(before.Result))
	}
	// New commits after the stale-log reopen must land above the
	// checkpoint's sequence, or the NEXT reopen would skip them.
	if _, err := re.InsertBatch([]record.Key{5, 6, 7}); err != nil {
		t.Fatalf("post-reopen insert: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("re-close: %v", err)
	}
	re2, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer re2.Close()
	out, err := re2.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("second reopen query: %v / %v", err, out.VerifyErr)
	}
	if len(out.Result) != len(after.Result)+3 {
		t.Fatalf("commits after the crash window were lost: %d records, want %d",
			len(out.Result), len(after.Result)+3)
	}
}

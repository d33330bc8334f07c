// Persistence shows an SAE deployment surviving a restart the one way
// this system has: a checkpoint (records.dat) plus the write-ahead log of
// every commit group since (wal.log). Until its first checkpoint a
// directory holds only a base record (base: the initial dataset's count
// and fingerprint), and a reopen must pass that dataset again. Session 1
// loads the data, commits updates around a checkpoint and shuts down;
// because it checkpointed, session 2 reopens the directory with no
// records, replays the groups the log holds past the checkpoint, and
// keeps answering verified queries and applying updates — without the
// data owner re-sending anything.
package main

import (
	"fmt"
	"log"
	"os"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "sae-persist-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ds, err := workload.Generate(workload.UNF, 10_000, 21)
	if err != nil {
		log.Fatal(err)
	}
	q := workload.Queries(1, workload.DefaultExtent, 22)[0]

	// ---- Session 1: outsource, update around a checkpoint, shut down.
	fmt.Println("session 1: owner outsources 10,000 records into a durable directory")
	{
		sys, err := core.OpenDurableSystem(dir, ds.Records, 0)
		if err != nil {
			log.Fatal(err)
		}
		ins, err := sys.InsertBatch([]record.Key{q.Lo, q.Lo + 1, q.Hi})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.DeleteBatch([]record.ID{ins[0].ID, ds.Records[0].ID}); err != nil {
			log.Fatal(err)
		}
		if err := sys.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("          insert and delete batches committed, then checkpointed")
		if _, err := sys.InsertBatch([]record.Key{q.Lo + 2, q.Hi - 1}); err != nil {
			log.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("          one more batch committed past the checkpoint; shut down")
	}

	// ---- Session 2: restart from the checkpoint plus the WAL.
	sys, err := core.OpenDurableSystem(dir, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if sys.ReplayedGroups() == 0 {
		log.Fatal("restart replayed no WAL groups past the checkpoint")
	}
	fmt.Printf("session 2: reopened from the checkpoint, %d WAL group(s) replayed\n", sys.ReplayedGroups())

	out, err := sys.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	if out.VerifyErr != nil {
		log.Fatalf("verification failed after restart: %v", out.VerifyErr)
	}
	fmt.Printf("          query %v: %d records, verified\n", q, len(out.Result))

	// Updates keep working after the restart.
	if _, err := sys.Insert(q.Lo + 3); err != nil {
		log.Fatal(err)
	}
	out, err = sys.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	if out.VerifyErr != nil {
		log.Fatalf("verification failed after post-restart insert: %v", out.VerifyErr)
	}
	fmt.Printf("          post-restart insert committed: %d records, still verified\n", len(out.Result))
}

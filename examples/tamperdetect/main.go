// Tamperdetect demonstrates the security half of SAE: a malicious service
// provider mounts the paper's attacks — dropping results (completeness),
// injecting bogus records (soundness), and modifying records (both) — and
// the client catches every one by comparing its digest XOR with the TE's
// token. It also demonstrates the theoretical escape hatch: the SP evades
// detection only if it finds DS and IS with DS⊕ == IS⊕, which the XOR of a
// duplicated pair trivially satisfies — and which set-semantics
// deduplication closes off. It exits non-zero if any of the attacks is
// accepted.
package main

import (
	"fmt"
	"log"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

func main() {
	ds, err := workload.Generate(workload.UNF, 30_000, 3)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Records)
	if err != nil {
		log.Fatal(err)
	}
	q := workload.Queries(1, workload.DefaultExtent, 4)[0]

	baseline, err := sys.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	if baseline.VerifyErr != nil {
		log.Fatalf("honest baseline rejected: %v", baseline.VerifyErr)
	}
	fmt.Printf("honest SP: %d records for %v — verified\n\n", len(baseline.Result), q)

	attacks := []struct {
		name   string
		tamper core.Tamper
	}{
		{"completeness attack: drop one result (DS={r})", core.DropTamper(0)},
		{"soundness attack: inject a fake record (IS={r'})",
			core.InjectTamper(record.Synthesize(77_000_000, (q.Lo+q.Hi)/2))},
		{"combined attack: modify a record (DS={r}, IS={r'})", core.ModifyTamper(0)},
		// The XOR fold itself is order-free, but every honest serve path
		// returns clustered key order, so the client makes order part of
		// the contract (it matters once relays/routers sit on the result
		// path — a permuted stream is not the canonical answer).
		{"reorder only (XOR is order-free; key-order contract catches it)",
			func(rs []record.Record) []record.Record {
				out := append([]record.Record(nil), rs...)
				for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
					out[i], out[j] = out[j], out[i]
				}
				return out
			}},
	}
	accepted := 0
	for _, a := range attacks {
		sys.SP.SetTamper(a.tamper)
		out, err := sys.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "detected and rejected"
		if out.VerifyErr == nil {
			verdict = "ACCEPTED"
			accepted++
		}
		fmt.Printf("%-60s -> %s\n", a.name, verdict)
	}
	sys.SP.SetTamper(nil)
	if accepted > 0 {
		log.Fatalf("%d of %d attacks were accepted", accepted, len(attacks))
	}

	fmt.Println("\nThe XOR caveat (documented in the paper's technical report):")
	fmt.Println("duplicating one record an even number of times cancels in the")
	fmt.Println("XOR — and if the pair is inserted order-preservingly the key")
	fmt.Println("order check cannot see it either — so a set-semantics client")
	fmt.Println("must deduplicate before hashing:")
	dup := baseline.Result[0]
	sys.SP.SetTamper(func(rs []record.Record) []record.Record {
		return append([]record.Record{dup, dup}, rs...)
	})
	out, err := sys.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  raw XOR check on duplicated pair: verifyErr=%v (cancels!)\n", out.VerifyErr)

	// Deduplicate by id, then verify — the tampering surfaces as a
	// duplicate, which set semantics rejects outright.
	seen := map[record.ID]int{}
	dups := 0
	for i := range out.Result {
		seen[out.Result[i].ID]++
		if seen[out.Result[i].ID] > 1 {
			dups++
		}
	}
	fmt.Printf("  set-semantics client: %d duplicate ids found -> result rejected\n", dups)
}

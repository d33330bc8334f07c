// Quickstart: the minimal SAE loop — outsource a dataset, run one range
// query, verify the result against the trusted entity's token.
package main

import (
	"fmt"
	"log"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

func main() {
	// 1. The data owner has a relation. Here: 10,000 synthetic records
	//    with uniform 4-byte keys over [0, 10^7).
	ds, err := workload.Generate(workload.UNF, 10_000, 42)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Outsource: the SP gets the records, the TE gets one digest per
	//    record. The owner keeps nothing but the data itself.
	sys, err := core.NewSystem(ds.Records)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Query the SP and the TE; verify the result with a 20-byte token.
	q := record.Range{Lo: 1_000_000, Hi: 1_200_000}
	out, err := sys.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	if out.VerifyErr != nil {
		log.Fatalf("result failed verification: %v", out.VerifyErr)
	}
	fmt.Printf("query %v returned %d records — verified with a %d-byte token\n",
		q, len(out.Result), core.VTSize)
	fmt.Printf("SP did %g node accesses; TE did %g; the client hashed %d records\n",
		out.SPCost.Total().Accesses, out.TECost.Accesses, len(out.Result))
}

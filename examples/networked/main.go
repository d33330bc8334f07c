// Networked runs the full SAE deployment the paper describes on loopback
// TCP: an SP server, a TE server, and a client that queries both in
// parallel, verifies results, and reports the real bytes exchanged with
// each party — Figure 5's communication overhead measured on sockets
// instead of by formula.
package main

import (
	"fmt"
	"log"

	"sae/internal/core"
	"sae/internal/pagestore"
	"sae/internal/tom"
	"sae/internal/wire"
	"sae/internal/workload"
)

func main() {
	const n = 20_000
	ds, err := workload.Generate(workload.UNF, n, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Boot the SAE parties.
	sp := core.NewServiceProvider(pagestore.NewMem())
	te := core.NewTrustedEntity(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		log.Fatal(err)
	}
	if err := te.Load(ds.Records); err != nil {
		log.Fatal(err)
	}
	spSrv, err := wire.ServeSP("127.0.0.1:0", sp, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer spSrv.Close()
	teSrv, err := wire.ServeTE("127.0.0.1:0", te, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer teSrv.Close()
	fmt.Printf("SAE SP listening on %s, TE on %s\n", spSrv.Addr(), teSrv.Addr())

	// And a TOM provider for comparison.
	owner, err := tom.NewOwner()
	if err != nil {
		log.Fatal(err)
	}
	provider := tom.NewProvider(pagestore.NewMem())
	if err := provider.Load(ds.Records, owner); err != nil {
		log.Fatal(err)
	}
	tomSrv, err := wire.ServeTOM("127.0.0.1:0", provider, owner, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer tomSrv.Close()
	fmt.Printf("TOM provider listening on %s\n\n", tomSrv.Addr())

	// A verifying SAE client runs the paper's query workload.
	client, err := wire.DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	tomClient, err := wire.DialVerifyingTOM(tomSrv.Addr(), owner.Verifier())
	if err != nil {
		log.Fatal(err)
	}
	defer tomClient.Close()

	queries := workload.Queries(20, workload.DefaultExtent, 12)
	totalRecords := 0
	for _, q := range queries {
		recs, err := client.Query(q)
		if err != nil {
			log.Fatalf("SAE query %v: %v", q, err)
		}
		tomRecs, err := tomClient.Query(q)
		if err != nil {
			log.Fatalf("TOM query %v: %v", q, err)
		}
		if len(recs) != len(tomRecs) {
			log.Fatalf("model disagreement on %v: %d vs %d records", q, len(recs), len(tomRecs))
		}
		totalRecords += len(recs)
	}

	nq := int64(len(queries))
	fmt.Printf("%d verified queries, %d records total\n\n", nq, totalRecords)
	fmt.Println("measured wire traffic per query (9-byte frame headers included):")
	fmt.Printf("  SAE  SP->client: %6d B  (the records themselves)\n", client.SP.BytesReceived()/nq)
	fmt.Printf("  SAE  TE->client: %6d B  (constant: one 20-byte token)\n", client.TE.BytesReceived()/nq)
	fmt.Printf("  TOM  SP->client: %6d B  (records + VO)\n", tomClient.BytesReceived()/nq)
	voOverhead := (tomClient.BytesReceived() - client.SP.BytesReceived()) / nq
	teOverhead := client.TE.BytesReceived() / nq
	fmt.Printf("\nauthentication overhead: TOM %d B/query vs SAE %d B/query (%.0fx)\n",
		voOverhead, teOverhead, float64(voOverhead)/float64(teOverhead))
}

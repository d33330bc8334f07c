package router

import (
	"sae/internal/agg"
	"sae/internal/shard"
)

// tamper makes a router malicious for the adversarial tests. The hooks
// interpose only on what a real rogue router controls — the untrusted
// result path (SP-side scatter shapes, gathered record payloads, replayed
// verified answers) and the bytes of a merged aggregate token, though not
// its tag. Tagging is deliberately out of reach, modeling the
// end-to-end-authenticated client↔TE token the trust argument rests on:
// a router that can also mint tags is the paper's compromised-TE-channel
// case, which no VO-less scheme survives.
type tamper struct {
	// scatterPlan substitutes a forged partition plan for the SP-side
	// scatter (seam shifting: records between the true and forged splits
	// silently vanish from the gather).
	scatterPlan *shard.Plan
	// reshapeSubs rewrites the SP-side sub-queries (narrowing a clamp at
	// a seam, dropping a shard from the scatter).
	reshapeSubs func([]shard.SubQuery) []shard.SubQuery
	// reshapeParts rewrites the gathered raw record payloads before the
	// merge (suppressing or swapping whole shards' sub-results).
	reshapeParts func([][]byte) [][]byte
	// forgeAgg rewrites the merged token's aggregate, keeping its tag,
	// before it is encoded (a rogue router asserting a flat-out wrong
	// COUNT/SUM/MIN/MAX).
	forgeAgg func(agg.Agg) agg.Agg
	// replayVerified rewrites the gathered per-shard verified payloads
	// (gen + VT + records) before the merge — a rogue router replaying a
	// cached answer from an older generation, which the client's
	// freshness floor must catch even though the XOR check passes.
	replayVerified func([][]byte) [][]byte
}

// setTamper installs (or clears) the malicious hooks; test-only.
func (r *Router) setTamper(t *tamper) { r.tamper.Store(t) }

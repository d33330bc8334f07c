package router

import (
	"errors"
	"strings"
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/shard"
)

// These tests turn the ROUTER itself malicious — not an upstream — and
// assert that a plain, router-oblivious VerifyingClient rejects every
// attack. The tamper hooks cover exactly the surface a rogue router
// controls: the scatter shapes and gathered payloads on the untrusted
// result path. The token path stays
// honest, modeling the end-to-end-authenticated client↔TE aggregate the
// trust argument rests on (see the package comment).

// spanningQuery returns a query crossing the seam between shards 0 and
// 1 with records on both sides.
func spanningQuery(t *testing.T, d *deployment) record.Range {
	t.Helper()
	seam := d.sys.Plan.Span(0).Hi
	q := record.Range{Lo: seam - 400_000, Hi: seam + 400_000}
	out, err := d.sys.Query(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("oracle: %v / %v", err, out.VerifyErr)
	}
	onLeft, onRight := 0, 0
	for _, r := range out.Result {
		if r.Key <= seam {
			onLeft++
		} else {
			onRight++
		}
	}
	if onLeft == 0 || onRight == 0 {
		t.Fatalf("query %v has %d/%d records around the seam; widen it", q, onLeft, onRight)
	}
	return q
}

func expectRejected(t *testing.T, err error, attack string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: routed client accepted a tampered result", attack)
	}
	if !errors.Is(err, core.ErrVerificationFailed) && !strings.Contains(err.Error(), "verification") {
		// Any loud failure is acceptable (never a silent wrong answer),
		// but these attacks should specifically trip verification.
		t.Logf("%s rejected with non-verification error: %v", attack, err)
	}
}

// TestRouterSuppressionRejected: the router drops one shard's sub-result
// from the merge. The combined token still covers the suppressed
// records, so the XOR check fails.
func TestRouterSuppressionRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	if _, err := client.Query(q); err != nil {
		t.Fatalf("honest routed query: %v", err)
	}
	d.router.setTamper(&tamper{reshapeParts: func(parts [][]byte) [][]byte {
		if len(parts) > 1 {
			return parts[1:]
		}
		return parts
	}})
	defer d.router.setTamper(nil)
	_, err := client.Query(q)
	expectRejected(t, err, "shard suppression")
}

// TestRouterSeamNarrowingRejected: the router narrows one shard's
// sub-range at a partition seam, vanishing the boundary records from
// the result stream while the token still covers them.
func TestRouterSeamNarrowingRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		out := append([]shard.SubQuery(nil), subs...)
		// Shave the tail of the first sub-range: the records between the
		// narrowed Hi and the true seam disappear.
		if len(out) > 0 && out[0].Sub.Hi > out[0].Sub.Lo+100_000 {
			out[0].Sub.Hi -= 100_000
		}
		return out
	}})
	defer d.router.setTamper(nil)
	_, err := client.Query(q)
	expectRejected(t, err, "seam narrowing")
}

// TestRouterShardSwapRejected: the router merges two shards' sub-results
// in swapped order. The XOR fold is order-independent — the set is
// right — but the client's key-order contract catches the permutation.
func TestRouterShardSwapRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	d.router.setTamper(&tamper{reshapeParts: func(parts [][]byte) [][]byte {
		if len(parts) > 1 && len(parts[0]) > 0 && len(parts[1]) > 0 {
			parts[0], parts[1] = parts[1], parts[0]
		}
		return parts
	}})
	defer d.router.setTamper(nil)
	_, err := client.Query(q)
	expectRejected(t, err, "shard swap")
}

// TestRouterPlanForgeryRejected: the router scatters under a forged plan
// whose split sits away from the attested one, so the sub-queries sent
// to the shard SPs miss the records between the true and forged seams.
func TestRouterPlanForgeryRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	splits := d.sys.Plan.Splits()
	splits[0] -= 300_000 // shift the first seam left
	forged, err := shard.NewPlan(splits)
	if err != nil {
		t.Fatal(err)
	}
	d.router.setTamper(&tamper{scatterPlan: &forged})
	defer d.router.setTamper(nil)
	_, err = client.Query(q)
	expectRejected(t, err, "plan forgery")
}

// TestRouterRecordTamperRejected: byte-level tampering inside a relayed
// record payload (the router rewrites a record's payload bytes in
// place) breaks that record's digest and the XOR check.
func TestRouterRecordTamperRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	d.router.setTamper(&tamper{reshapeParts: func(parts [][]byte) [][]byte {
		for _, enc := range parts {
			if len(enc) >= record.Size {
				// Flip a payload byte past the key prefix so the record
				// stays in range but hashes differently.
				enc[record.Size-1] ^= 0xFF
				break
			}
		}
		return parts
	}})
	defer d.router.setTamper(nil)
	_, err := client.Query(q)
	expectRejected(t, err, "record tamper")
}

// TestUpstreamTamperThroughRouterRejected: a malicious upstream SP
// (classic DropTamper) stays detected when its result arrives via the
// router.
func TestUpstreamTamperThroughRouterRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	d.sys.SPs[1].SetTamper(core.DropTamper(0))
	defer d.sys.SPs[1].SetTamper(nil)
	_, err := client.Query(q)
	expectRejected(t, err, "upstream SP tamper")
}

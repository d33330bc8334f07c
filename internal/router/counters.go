package router

import (
	"slices"
	"sync/atomic"
)

// counters are the router's failure-handling tallies, shared by every
// endpoint set and bumped lock-free on the request path. They exist for
// operators, not for correctness: verification never depends on them.
type counters struct {
	failovers    atomic.Uint64 // attempts abandoned for a different endpoint
	hedges       atomic.Uint64 // hedge legs launched
	hedgesWon    atomic.Uint64 // hedge legs that answered first
	hedgesLost   atomic.Uint64 // hedge legs cancelled by the primary leg
	staleRejects atomic.Uint64 // answers rejected for exceeding the staleness bound
	evictions    atomic.Uint64 // connections dropped as broken
	reconnects   atomic.Uint64 // fresh dials after a breakage
	cutovers     atomic.Uint64 // reshard topology swaps applied
}

// Counters is a point-in-time snapshot of the router's failure-handling
// tallies (see the Observability section of the README).
type Counters struct {
	Failovers    uint64
	Hedges       uint64
	HedgesWon    uint64
	HedgesLost   uint64
	StaleRejects uint64
	Evictions    uint64
	Reconnects   uint64
	Cutovers     uint64
}

// Counters snapshots the router's failure-handling tallies.
func (r *Router) Counters() Counters {
	return Counters{
		Failovers:    r.ctrs.failovers.Load(),
		Hedges:       r.ctrs.hedges.Load(),
		HedgesWon:    r.ctrs.hedgesWon.Load(),
		HedgesLost:   r.ctrs.hedgesLost.Load(),
		StaleRejects: r.ctrs.staleRejects.Load(),
		Evictions:    r.ctrs.evictions.Load(),
		Reconnects:   r.ctrs.reconnects.Load(),
		Cutovers:     r.ctrs.cutovers.Load(),
	}
}

// UpstreamHealth describes one upstream address's current state.
type UpstreamHealth struct {
	Shard int
	Roles []string // the role sets it serves: "SP", "TE", "verified"
	Addr  string
	Down  bool   // inside its reconnect-backoff window
	Gen   uint64 // newest generation stamp observed (0 if unstamped)
}

// Health reports every upstream address of the currently serving
// topology once, with the roles it serves, shard by shard.
func (r *Router) Health() []UpstreamHealth {
	t := r.topo.Load()
	out := make([]UpstreamHealth, 0, len(t.eps))
	for _, ep := range t.eps {
		out = append(out, UpstreamHealth{
			Shard: ep.shard, Roles: slices.Clone(ep.roles), Addr: ep.addr, Down: ep.isDown(), Gen: ep.gen.Load(),
		})
	}
	slices.SortStableFunc(out, func(a, b UpstreamHealth) int { return a.Shard - b.Shard })
	return out
}

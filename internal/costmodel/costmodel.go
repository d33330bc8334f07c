// Package costmodel turns page-access counts into the simulated processing
// times the paper reports: "when measuring processing cost, we charge 10
// milli-seconds for each node access". CPU time (hashing, XORing, signature
// checks) is measured on the real clock and reported separately.
package costmodel

import (
	"fmt"
	"time"

	"sae/internal/pagestore"
)

// DefaultPerAccess is the paper's charge per node (page) access.
const DefaultPerAccess = 10 * time.Millisecond

// Model prices page accesses.
type Model struct {
	PerAccess time.Duration
}

// Default is the paper's cost model.
var Default = Model{PerAccess: DefaultPerAccess}

// IOCost returns the simulated I/O time for a number of node accesses.
func (m Model) IOCost(accesses int64) time.Duration {
	return time.Duration(accesses) * m.PerAccess
}

// Breakdown is the cost of one measured operation.
type Breakdown struct {
	Accesses float64       // node accesses charged (an exact mean after Div)
	IO       time.Duration // Accesses × PerAccess
	CPU      time.Duration // measured wall time of the computation itself
}

// Measure prices a stats delta plus measured CPU time.
func (m Model) Measure(delta pagestore.Stats, cpu time.Duration) Breakdown {
	return Breakdown{
		Accesses: float64(delta.Accesses()),
		IO:       m.IOCost(delta.Accesses()),
		CPU:      cpu,
	}
}

// Total returns IO + CPU.
func (b Breakdown) Total() time.Duration { return b.IO + b.CPU }

// Add accumulates another breakdown.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Accesses: b.Accesses + o.Accesses,
		IO:       b.IO + o.IO,
		CPU:      b.CPU + o.CPU,
	}
}

// Div averages the breakdown over n operations. Accesses keeps the exact
// mean (2.2, not 2); IO and CPU are rounded down to the nanosecond.
func (b Breakdown) Div(n int) Breakdown {
	if n == 0 {
		return Breakdown{}
	}
	return Breakdown{
		Accesses: b.Accesses / float64(n),
		IO:       b.IO / time.Duration(n),
		CPU:      b.CPU / time.Duration(n),
	}
}

// Millis renders a duration as fractional milliseconds for report tables.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// String summarizes the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("%.1fms (io %.1fms over %g accesses, cpu %.2fms)",
		Millis(b.Total()), Millis(b.IO), b.Accesses, Millis(b.CPU))
}

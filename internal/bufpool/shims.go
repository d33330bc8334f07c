package bufpool

// The names in this file do nothing. They are kept only because the
// bench/ harness, a separate module, still attaches a "cache" to each
// structure it builds and reads a party's CacheStats. A party keeps no
// cache: each tree's Table holds every node, so a node read cannot miss.

// DefaultCapacity is ignored.
const DefaultCapacity = 1024

// ChargePolicy is ignored: every node access is charged.
type ChargePolicy uint8

// ChargeAllAccesses is the one ChargePolicy.
const ChargeAllAccesses ChargePolicy = 0

// Cache is an empty stand-in; a structure's UseCache ignores it.
type Cache struct{}

// New returns an empty Cache. Both arguments are ignored.
func New(capacity int, policy ChargePolicy) *Cache { return new(Cache) }

// Stats is what a party reports from CacheStats: every node read counts
// as a hit, since a node table cannot miss.
type Stats struct {
	Hits   int64
	Misses int64
}

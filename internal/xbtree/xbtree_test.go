package xbtree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sae/internal/digest"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// tupleFor fabricates a tuple whose digest is derived from its id, so
// reference computations are reproducible.
func tupleFor(id record.ID) Tuple {
	return Tuple{ID: id, Digest: digest.OfBytes([]byte(fmt.Sprintf("tuple-%d", id)))}
}

// reference mirrors the tree's logical content for brute-force checks.
type reference struct {
	byKey map[record.Key][]Tuple
}

func newReference() *reference {
	return &reference{byKey: make(map[record.Key][]Tuple)}
}

func (r *reference) insert(k record.Key, t Tuple) {
	r.byKey[k] = append(r.byKey[k], t)
}

func (r *reference) remove(k record.Key, id record.ID) bool {
	ts := r.byKey[k]
	for i, t := range ts {
		if t.ID == id {
			r.byKey[k] = append(ts[:i], ts[i+1:]...)
			return true
		}
	}
	return false
}

// vt computes the expected verification token by brute force.
func (r *reference) vt(lo, hi record.Key) digest.Digest {
	var acc digest.Accumulator
	for k, ts := range r.byKey {
		if k >= lo && k <= hi {
			for _, t := range ts {
				acc.Add(t.Digest)
			}
		}
	}
	return acc.Sum()
}

func (r *reference) tuples() int {
	n := 0
	for _, ts := range r.byKey {
		n += len(ts)
	}
	return n
}

// bulkItems converts the reference into sorted bulk-load input.
func (r *reference) bulkItems() []KeyTuples {
	keys := make([]record.Key, 0, len(r.byKey))
	for k, ts := range r.byKey {
		if len(ts) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	items := make([]KeyTuples, len(keys))
	for i, k := range keys {
		items[i] = KeyTuples{Key: k, Tuples: r.byKey[k]}
	}
	return items
}

// populate fills a reference with n tuples over domain keys.
func populate(n int, domain int, seed int64) *reference {
	ref := newReference()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		ref.insert(record.Key(rng.Intn(domain)), tupleFor(record.ID(i+1)))
	}
	return ref
}

func checkVTs(t *testing.T, tree *Tree, ref *reference, domain int, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		lo := record.Key(rng.Intn(domain))
		hi := lo + record.Key(rng.Intn(domain/4+1))
		got, err := tree.GenerateVTCtx(nil, lo, hi)
		if err != nil {
			t.Fatalf("GenerateVT(%d,%d): %v", lo, hi, err)
		}
		if want := ref.vt(lo, hi); got != want {
			t.Fatalf("VT(%d,%d) = %s, want %s", lo, hi, got, want)
		}
	}
}

func TestBulkloadSmall(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 50, LeafCapacity, LeafCapacity + 1, 3 * LeafCapacity} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := populate(n, 1000, int64(n+1))
			tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
			if err != nil {
				t.Fatalf("Bulkload: %v", err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tree.Tuples() != ref.tuples() {
				t.Fatalf("Tuples = %d, want %d", tree.Tuples(), ref.tuples())
			}
			checkVTs(t, tree, ref, 1000, 25, int64(n+2))
		})
	}
}

func TestBulkloadMultiLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level build is slow in -short mode")
	}
	// Enough distinct keys for height 3: > LeafCapacity * (InnerCapacity+1).
	n := LeafCapacity*(InnerCapacity+2) + 7
	items := make([]KeyTuples, n)
	for i := range items {
		items[i] = KeyTuples{Key: record.Key(i * 3), Tuples: []Tuple{tupleFor(record.ID(i + 1))}}
	}
	tree, err := Bulkload(pagestore.NewMem(), items)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if tree.Height() < 3 {
		t.Fatalf("Height = %d, want >= 3", tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Spot-check VTs against arithmetic over the regular key pattern.
	got, err := tree.GenerateVTCtx(nil, record.Key(30), record.Key(60))
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	var acc digest.Accumulator
	for i := range items {
		if items[i].Key >= 30 && items[i].Key <= 60 {
			acc.Add(items[i].Tuples[0].Digest)
		}
	}
	if got != acc.Sum() {
		t.Fatal("VT mismatch on multi-level tree")
	}
}

func TestBulkloadRejectsBadInput(t *testing.T) {
	unsorted := []KeyTuples{
		{Key: 5, Tuples: []Tuple{tupleFor(1)}},
		{Key: 3, Tuples: []Tuple{tupleFor(2)}},
	}
	if _, err := Bulkload(pagestore.NewMem(), unsorted); err == nil {
		t.Fatal("Bulkload accepted unsorted keys")
	}
	dup := []KeyTuples{
		{Key: 5, Tuples: []Tuple{tupleFor(1)}},
		{Key: 5, Tuples: []Tuple{tupleFor(2)}},
	}
	if _, err := Bulkload(pagestore.NewMem(), dup); err == nil {
		t.Fatal("Bulkload accepted duplicate keys")
	}
	empty := []KeyTuples{{Key: 5}}
	if _, err := Bulkload(pagestore.NewMem(), empty); err == nil {
		t.Fatal("Bulkload accepted an empty tuple list")
	}
}

func TestInsertIncremental(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newReference()
	rng := rand.New(rand.NewSource(11))
	const domain = 2000
	for i := 0; i < 5000; i++ {
		k := record.Key(rng.Intn(domain))
		tup := tupleFor(record.ID(i + 1))
		if err := tree.InsertCtx(nil, k, tup); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ref.insert(k, tup)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.Tuples() != ref.tuples() {
		t.Fatalf("Tuples = %d, want %d", tree.Tuples(), ref.tuples())
	}
	checkVTs(t, tree, ref, domain, 60, 12)
}

func TestInsertForcesInternalSplits(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newReference()
	// Sequential keys stress the rightmost path and guarantee internal
	// splits once the root leaf has split enough times.
	n := LeafCapacity * 4
	for i := 0; i < n; i++ {
		k := record.Key(i)
		tup := tupleFor(record.ID(i + 1))
		if err := tree.InsertCtx(nil, k, tup); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ref.insert(k, tup)
	}
	if tree.Height() < 2 {
		t.Fatalf("Height = %d, want >= 2", tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkVTs(t, tree, ref, n, 40, 13)
}

func TestInsertIntoBulkloaded(t *testing.T) {
	ref := populate(3000, 5000, 21)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		k := record.Key(rng.Intn(5000))
		tup := tupleFor(record.ID(100_000 + i))
		if err := tree.InsertCtx(nil, k, tup); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ref.insert(k, tup)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkVTs(t, tree, ref, 5000, 60, 23)
}

func TestDelete(t *testing.T) {
	ref := populate(2000, 3000, 31)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	rng := rand.New(rand.NewSource(32))
	// Delete half of the tuples.
	var all []struct {
		k  record.Key
		id record.ID
	}
	for k, ts := range ref.byKey {
		for _, tup := range ts {
			all = append(all, struct {
				k  record.Key
				id record.ID
			}{k, tup.ID})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, victim := range all[:len(all)/2] {
		if err := tree.DeleteCtx(nil, victim.k, victim.id); err != nil {
			t.Fatalf("Delete(%d,%d): %v", victim.k, victim.id, err)
		}
		if !ref.remove(victim.k, victim.id) {
			t.Fatal("reference desync")
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after deletes: %v", err)
	}
	if tree.Tuples() != ref.tuples() {
		t.Fatalf("Tuples = %d, want %d", tree.Tuples(), ref.tuples())
	}
	checkVTs(t, tree, ref, 3000, 60, 33)
}

func TestDeleteNotFound(t *testing.T) {
	ref := populate(100, 200, 41)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if err := tree.DeleteCtx(nil, 9999, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(absent key) error = %v, want ErrNotFound", err)
	}
	// Existing key, absent id.
	var k record.Key
	for key := range ref.byKey {
		k = key
		break
	}
	if err := tree.DeleteCtx(nil, k, 123456); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(absent id) error = %v, want ErrNotFound", err)
	}
}

func TestTombstoneAndReinsert(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tup := tupleFor(1)
	if err := tree.InsertCtx(nil, 77, tup); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tree.DeleteCtx(nil, 77, 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Tombstone: key remains with an empty list and zero X contribution.
	ts, ok, err := tree.Lookup(77)
	if err != nil || !ok {
		t.Fatalf("Lookup after delete: ts=%v ok=%v err=%v", ts, ok, err)
	}
	if len(ts) != 0 {
		t.Fatalf("tombstoned list has %d tuples, want 0", len(ts))
	}
	vt, err := tree.GenerateVTCtx(nil, 0, 100)
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	if !vt.IsZero() {
		t.Fatal("VT over tombstoned-only content must be zero")
	}
	// Reinsert resurrects the entry.
	tup2 := tupleFor(2)
	if err := tree.InsertCtx(nil, 77, tup2); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	vt, err = tree.GenerateVTCtx(nil, 77, 77)
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	if vt != tup2.Digest {
		t.Fatal("VT after reinsert must equal the new tuple's digest")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestHeavyDuplicatesChainLists(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newReference()
	// Far more duplicates of one key than fit an inline list or one chain
	// page.
	n := 3*chainCapacity + 5
	for i := 0; i < n; i++ {
		tup := tupleFor(record.ID(i + 1))
		if err := tree.InsertCtx(nil, 500, tup); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ref.insert(500, tup)
	}
	// Some surrounding keys.
	for i := 0; i < 50; i++ {
		tup := tupleFor(record.ID(10_000 + i))
		k := record.Key(i * 37)
		if err := tree.InsertCtx(nil, k, tup); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ref.insert(k, tup)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ts, ok, err := tree.Lookup(500)
	if err != nil || !ok {
		t.Fatalf("Lookup: ok=%v err=%v", ok, err)
	}
	if len(ts) != n {
		t.Fatalf("chained list has %d tuples, want %d", len(ts), n)
	}
	checkVTs(t, tree, ref, 2000, 40, 51)

	// Shrink the chain back below the inline threshold.
	for i := 0; i < n-5; i++ {
		if err := tree.DeleteCtx(nil, 500, record.ID(i+1)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		ref.remove(500, record.ID(i+1))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after chain shrink: %v", err)
	}
	checkVTs(t, tree, ref, 2000, 20, 52)
}

func TestBulkloadHeavyDuplicates(t *testing.T) {
	tuples := make([]Tuple, 2*chainCapacity)
	for i := range tuples {
		tuples[i] = tupleFor(record.ID(i + 1))
	}
	items := []KeyTuples{
		{Key: 10, Tuples: []Tuple{tupleFor(9001)}},
		{Key: 20, Tuples: tuples},
		{Key: 30, Tuples: []Tuple{tupleFor(9002)}},
	}
	tree, err := Bulkload(pagestore.NewMem(), items)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	vt, err := tree.GenerateVTCtx(nil, 20, 20)
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	var acc digest.Accumulator
	for _, tup := range tuples {
		acc.Add(tup.Digest)
	}
	if vt != acc.Sum() {
		t.Fatal("VT over chained list mismatch")
	}
}

func TestGenerateVTEdgeCases(t *testing.T) {
	ref := populate(500, 1000, 61)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	// Inverted range.
	vt, err := tree.GenerateVTCtx(nil, 500, 100)
	if err != nil || !vt.IsZero() {
		t.Fatalf("inverted range: vt=%s err=%v, want zero", vt, err)
	}
	// Whole domain.
	vt, err = tree.GenerateVTCtx(nil, 0, record.KeyDomain)
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	if want := ref.vt(0, record.KeyDomain); vt != want {
		t.Fatal("whole-domain VT mismatch")
	}
	// Empty gap between keys.
	vt, err = tree.GenerateVTCtx(nil, 0, 0)
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	if want := ref.vt(0, 0); vt != want {
		t.Fatal("point VT mismatch")
	}
	// Point queries on every key present.
	n := 0
	for k := range ref.byKey {
		vt, err := tree.GenerateVTCtx(nil, k, k)
		if err != nil {
			t.Fatalf("GenerateVT(%d,%d): %v", k, k, err)
		}
		if want := ref.vt(k, k); vt != want {
			t.Fatalf("point VT(%d) mismatch", k)
		}
		if n++; n >= 50 {
			break
		}
	}
}

func TestGenerateVTAccessCountLogarithmic(t *testing.T) {
	counting := pagestore.NewCounting(pagestore.NewMem())
	ref := populate(20_000, 100_000, 71)
	tree, err := Bulkload(counting, ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		lo := record.Key(rng.Intn(100_000))
		hi := lo + record.Key(rng.Intn(30_000))
		before := counting.Stats()
		if _, err := tree.GenerateVTCtx(nil, lo, hi); err != nil {
			t.Fatalf("GenerateVT: %v", err)
		}
		accesses := counting.Stats().Sub(before).Accesses()
		// Two root-to-leaf traversals plus at most two boundary list
		// reads: comfortably within 4*height + 4 regardless of result
		// cardinality.
		if limit := int64(4*tree.Height() + 4); accesses > limit {
			t.Fatalf("GenerateVT(%d,%d) used %d accesses, limit %d (height %d)",
				lo, hi, accesses, limit, tree.Height())
		}
	}
}

func TestCapacityConstants(t *testing.T) {
	// Aggregate annotations (listCount per entry, childAgg per child) cost
	// fanout: inner 119 -> 65, leaf 136 -> 120.
	if InnerCapacity != 65 {
		t.Fatalf("InnerCapacity = %d, want 65", InnerCapacity)
	}
	if LeafCapacity != 120 {
		t.Fatalf("LeafCapacity = %d, want 120", LeafCapacity)
	}
	if TupleSize != 28 {
		t.Fatalf("TupleSize = %d, want 28", TupleSize)
	}
}

func TestLookupAbsent(t *testing.T) {
	ref := populate(100, 1000, 81)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	for k := record.Key(0); k < 1000; k++ {
		ts, ok, err := tree.Lookup(k)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", k, err)
		}
		want, present := ref.byKey[k]
		if ok != (present && len(want) > 0) {
			t.Fatalf("Lookup(%d) ok = %v, want %v", k, ok, present)
		}
		if ok && len(ts) != len(want) {
			t.Fatalf("Lookup(%d) returned %d tuples, want %d", k, len(ts), len(want))
		}
	}
}

func TestMixedWorkloadRandomized(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newReference()
	rng := rand.New(rand.NewSource(91))
	nextID := record.ID(1)
	type liveTuple struct {
		k  record.Key
		id record.ID
	}
	var live []liveTuple
	const domain = 800
	for op := 0; op < 6000; op++ {
		if len(live) == 0 || rng.Intn(4) != 0 {
			k := record.Key(rng.Intn(domain))
			tup := tupleFor(nextID)
			if err := tree.InsertCtx(nil, k, tup); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			ref.insert(k, tup)
			live = append(live, liveTuple{k, nextID})
			nextID++
		} else {
			i := rng.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := tree.DeleteCtx(nil, v.k, v.id); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			ref.remove(v.k, v.id)
		}
		if op%1500 == 1499 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("Validate at op %d: %v", op, err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("final Validate: %v", err)
	}
	checkVTs(t, tree, ref, domain, 80, 92)
}

// TestInsertIntoCachedLeafAllocs: a new key inserted into a leaf with
// room allocates nothing: the leaf's entry array, kept in the node table
// since the leaf was made, has room for one entry past its capacity.
func TestInsertIntoCachedLeafAllocs(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10_000; i++ {
		k := record.Key(2 * rng.Intn(1_000_000)) // even keys; odd ones stay free
		if err := tree.InsertCtx(nil, k, tupleFor(record.ID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Pick one free key inside each leaf with room to take it without a
	// split.
	var targets []record.Key
	var walk func(id pagestore.PageID)
	walk = func(id pagestore.PageID) {
		n, err := tree.readNode(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			if len(n.entries) < LeafCapacity {
				targets = append(targets, n.entries[0].sk+1)
			}
			return
		}
		walk(n.e0C)
		for i := range n.entries {
			walk(n.entries[i].child)
		}
	}
	walk(tree.root)
	const runs = 40
	if len(targets) < runs+1 {
		t.Fatalf("only %d leaves with room", len(targets))
	}
	tuples := make([]Tuple, len(targets))
	for i := range tuples {
		tuples[i] = tupleFor(record.ID(100_000 + i))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tree.InsertCtx(nil, targets[next], tuples[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("insert into a cached leaf: %v allocs, want 0", allocs)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

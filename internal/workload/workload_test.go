package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"sae/internal/record"
)

func TestGenerateUniform(t *testing.T) {
	ds, err := Generate(UNF, 10_000, 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Records) != 10_000 {
		t.Fatalf("got %d records", len(ds.Records))
	}
	if !sort.SliceIsSorted(ds.Records, func(i, j int) bool {
		return record.SortByKey(ds.Records[i], ds.Records[j]) < 0
	}) {
		t.Fatal("records not sorted by key")
	}
	// A uniform dataset should show ~20% of keys in 20% of the domain.
	c := Concentration(ds.Records, 0.2)
	if c < 0.17 || c > 0.23 {
		t.Fatalf("UNF concentration at 20%% = %.3f, want ~0.20", c)
	}
}

func TestGenerateSkewed(t *testing.T) {
	ds, err := Generate(SKW, 50_000, 2)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// The paper: ~77% of the keys in 20% of the domain for θ=0.8. The
	// bucketed sampler lands within a few points of that.
	c := Concentration(ds.Records, 0.2)
	if c < 0.74 || c > 0.80 {
		t.Fatalf("SKW concentration at 20%% = %.3f, want ~0.77", c)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(SKW, 1000, 42)
	b, _ := Generate(SKW, 1000, 42)
	for i := range a.Records {
		if !a.Records[i].Equal(&b.Records[i]) {
			t.Fatalf("records diverge at %d for identical seeds", i)
		}
	}
	c, _ := Generate(SKW, 1000, 43)
	same := true
	for i := range a.Records {
		if !a.Records[i].Equal(&c.Records[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestGenerateUnknownDistribution(t *testing.T) {
	if _, err := Generate("GAUSS", 10, 1); err == nil {
		t.Fatal("Generate accepted an unknown distribution")
	}
}

func TestGenerateIDsUnique(t *testing.T) {
	ds, _ := Generate(UNF, 5000, 3)
	seen := make(map[record.ID]bool, len(ds.Records))
	for i := range ds.Records {
		id := ds.Records[i].ID
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestQueries(t *testing.T) {
	qs := Queries(100, DefaultExtent, 4)
	if len(qs) != 100 {
		t.Fatalf("got %d queries", len(qs))
	}
	wantWidth := record.Key(DefaultExtent * float64(record.KeyDomain))
	for i, q := range qs {
		if q.Empty() {
			t.Fatalf("query %d is empty", i)
		}
		if q.Hi-q.Lo != wantWidth {
			t.Fatalf("query %d extent = %d, want %d", i, q.Hi-q.Lo, wantWidth)
		}
		if int(q.Hi) >= record.KeyDomain+int(wantWidth) {
			t.Fatalf("query %d exceeds domain", i)
		}
	}
}

func TestQueriesDeterministic(t *testing.T) {
	a := Queries(50, DefaultExtent, 7)
	b := Queries(50, DefaultExtent, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("queries diverge for identical seeds")
		}
	}
}

func TestRangeHelpers(t *testing.T) {
	q := record.Range{Lo: 10, Hi: 20}
	if !q.Contains(10) || !q.Contains(20) || q.Contains(9) || q.Contains(21) {
		t.Fatal("Contains misbehaves at boundaries")
	}
	if q.Width() != 11 {
		t.Fatalf("Width = %d, want 11", q.Width())
	}
	empty := record.Range{Lo: 5, Hi: 4}
	if !empty.Empty() || empty.Width() != 0 {
		t.Fatal("empty range misdetected")
	}
}

// TestGenerateGolden pins the exact bytes Generate produces. Every server,
// the router's plan check and the benchmark's oracle derive their data
// from it independently, so a change to the key draw, the sort order or
// the payload synthesis must show up here, not as a verification failure
// between processes.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		dist Distribution
		n    int
		seed int64
		want string // SHA-256 of the concatenated record encodings
	}{
		{UNF, 1_000, 1, "33e913de9981bb80cc024ff01d5129d2860088ace6a7d1d4525220441e9d4c90"},
		{UNF, 1_000, 7, "ca0c5e3badc324c253e860f38274d70cab14e7337ed0d1f659c7ee7b8eef3eec"},
		{UNF, 100_000, 1, "80000376d4ef14d8cd9bd16fa6e0891100d713d87a1edb64e1d0d709b1b2f5a1"},
		{UNF, 100_000, 7, "1ab2737347a04c6cc777d545c1c81a2230101368a4a4a1a3c636b1ca289cb598"},
		{SKW, 1_000, 1, "1926bbb24a15d439211338ef579af5663182e6a19f4ee5e6ea11989e7c8bfd77"},
		{SKW, 1_000, 7, "ef6b1646c65f9d96ae16993defd4ed12dc10de621f7690379c60d17bec8f1191"},
		{SKW, 100_000, 1, "e9fc5412ca6e6aa2e134b779e8c38157b60336c051126d946ad41034de822f67"},
		{SKW, 100_000, 7, "9c7bfdec3daf5980f8c60ac135909280446153c9e61b95cba208511465b2506e"},
	}
	for _, c := range cases {
		ds, err := Generate(c.dist, c.n, c.seed)
		if err != nil {
			t.Fatalf("Generate(%s, %d, %d): %v", c.dist, c.n, c.seed, err)
		}
		h := sha256.New()
		buf := make([]byte, 0, record.Size)
		for i := range ds.Records {
			h.Write(ds.Records[i].AppendBinary(buf))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("Generate(%s, %d, %d) hashes to %s, want %s", c.dist, c.n, c.seed, got, c.want)
		}
	}
}

// TestCardinalityOutOfRange: a negative n, or one whose ids do not fit a
// packed pair's 32 bits, is an error, not a panic or a giant allocation.
func TestCardinalityOutOfRange(t *testing.T) {
	for _, n := range []int{-5, -1, MaxN + 1} {
		if _, err := Keys(UNF, n, 1); err == nil {
			t.Errorf("Keys accepted n = %d", n)
		}
		if _, err := Generate(UNF, n, 1); err == nil {
			t.Errorf("Generate accepted n = %d", n)
		}
	}
}

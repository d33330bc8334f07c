package mbtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sae/internal/agg"
	"sae/internal/bptree"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/sigs"
)

// A VO (verification object) proves the correctness of a query result under
// TOM. It is a pre-order token stream over the part of the MB-Tree the query
// touched:
//
//   - Child tokens stand in for pruned internal subtrees, carrying the
//     child's digest and its (COUNT, SUM, MIN, MAX) annotation.
//   - KeyDig tokens stand in for pruned leaf entries (key + record digest).
//   - Sep tokens carry the separator key preceding each non-first child of
//     an expanded internal node.
//   - Expand tokens precede a nested child node, carrying the annotation the
//     parent stores for it (the replay needs it to rebuild the parent's hash
//     stream).
//   - Record tokens carry the two boundary records that bracket a range
//     result (proving completeness).
//   - Result tokens are placeholders for runs of result records, which the
//     client already holds and hashes itself.
//   - LeafBegin/InnerBegin/NodeEnd tokens delimit a tree page, whose digest
//     is the hash of the byte stream nodeDigest defines.
//
// The client replays the stream, reconstructs the root digest and checks it
// against the owner's signature; the token grammar additionally proves that
// nothing was omitted between the boundary records. Because separators and
// annotations are bound into every internal node's digest, the same stream
// shape also carries aggregate proofs: see AggVOCtx / VerifyAggVO.

// TokenKind discriminates VO stream tokens.
type TokenKind byte

// Token kinds in a VO stream.
const (
	TokChild      TokenKind = 1 // pruned internal child: digest + aggregate
	TokRecord     TokenKind = 2 // boundary record
	TokResult     TokenKind = 3 // run of result records held by the client
	TokLeafBegin  TokenKind = 4 // start of a leaf page
	TokNodeEnd    TokenKind = 5 // end of any page
	TokKeyDig     TokenKind = 6 // pruned leaf entry: key + record digest
	TokInnerBegin TokenKind = 7 // start of an internal page
	TokSep        TokenKind = 8 // separator key before a non-first child
	TokExpand     TokenKind = 9 // expanded child: its stored aggregate
)

// Token is one element of the VO stream.
type Token struct {
	Kind   TokenKind
	Key    record.Key    // TokKeyDig, TokSep
	Digest digest.Digest // TokChild, TokKeyDig
	Agg    agg.Agg       // TokChild, TokExpand
	Record record.Record // TokRecord
	Count  int           // TokResult: number of result records to consume
}

// VO is a verification object: the token stream plus the owner's root
// signature.
type VO struct {
	Tokens []Token
	Sig    []byte
}

// tokenPayload returns the serialized payload size of a token kind, or -1
// for an unknown kind.
func tokenPayload(kind TokenKind) int {
	switch kind {
	case TokChild:
		return digest.Size + agg.Size
	case TokRecord:
		return record.Size
	case TokResult:
		return 4
	case TokKeyDig:
		return 4 + digest.Size
	case TokSep:
		return 4
	case TokExpand:
		return agg.Size
	case TokLeafBegin, TokInnerBegin, TokNodeEnd:
		return 0
	}
	return -1
}

// Size returns the VO's serialized size in bytes — the communication
// overhead the paper measures in Figure 5.
func (vo *VO) Size() int {
	n := 2 + len(vo.Sig)
	for i := range vo.Tokens {
		n += 1 + tokenPayload(vo.Tokens[i].Kind)
	}
	return n
}

// Marshal serializes the VO.
func (vo *VO) Marshal() []byte {
	return vo.AppendTo(make([]byte, 0, vo.Size()))
}

// AppendTo serializes the VO onto the end of buf and returns the extended
// slice. Bytes are identical to Marshal (TestVOAppendToMatchesMarshal).
func (vo *VO) AppendTo(buf []byte) []byte {
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(vo.Sig)))
	buf = append(buf, u16[:]...)
	buf = append(buf, vo.Sig...)
	var u32 [4]byte
	for i := range vo.Tokens {
		t := &vo.Tokens[i]
		buf = append(buf, byte(t.Kind))
		switch t.Kind {
		case TokChild:
			buf = append(buf, t.Digest[:]...)
			buf = t.Agg.AppendTo(buf)
		case TokRecord:
			buf = t.Record.AppendBinary(buf)
		case TokResult:
			binary.BigEndian.PutUint32(u32[:], uint32(t.Count))
			buf = append(buf, u32[:]...)
		case TokKeyDig:
			binary.BigEndian.PutUint32(u32[:], uint32(t.Key))
			buf = append(buf, u32[:]...)
			buf = append(buf, t.Digest[:]...)
		case TokSep:
			binary.BigEndian.PutUint32(u32[:], uint32(t.Key))
			buf = append(buf, u32[:]...)
		case TokExpand:
			buf = t.Agg.AppendTo(buf)
		}
	}
	return buf
}

// ErrBadVO is wrapped by all VO parsing and verification failures.
var ErrBadVO = errors.New("mbtree: invalid verification object")

// countTokens walks a serialized token stream counting tokens without
// materializing them — the pre-pass that lets UnmarshalVO size the token
// slice once. A malformed stream is left for the decode loop to report;
// the count is simply cut short there.
func countTokens(b []byte) int {
	n := 0
	for len(b) > 0 {
		skip := tokenPayload(TokenKind(b[0]))
		b = b[1:]
		if skip < 0 || len(b) < skip {
			return n
		}
		b = b[skip:]
		n++
	}
	return n
}

// UnmarshalVO parses a serialized VO. A counting pre-pass sizes the token
// slice exactly: tokens embed a full record (500+ bytes), so letting
// append double a thousand-token slice repeatedly used to copy megabytes
// per VO — the pre-pass costs one cheap scan instead.
func UnmarshalVO(b []byte) (*VO, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadVO)
	}
	sigLen := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < sigLen {
		return nil, fmt.Errorf("%w: truncated signature", ErrBadVO)
	}
	vo := &VO{Sig: append([]byte(nil), b[:sigLen]...)}
	b = b[sigLen:]
	if n := countTokens(b); n > 0 {
		vo.Tokens = make([]Token, 0, n)
	}
	for len(b) > 0 {
		kind := TokenKind(b[0])
		b = b[1:]
		switch kind {
		case TokChild:
			if len(b) < digest.Size+agg.Size {
				return nil, fmt.Errorf("%w: truncated child token", ErrBadVO)
			}
			vo.Tokens = append(vo.Tokens, Token{
				Kind:   TokChild,
				Digest: digest.FromBytes(b[:digest.Size]),
				Agg:    agg.FromBytes(b[digest.Size : digest.Size+agg.Size]),
			})
			b = b[digest.Size+agg.Size:]
		case TokRecord:
			r, err := record.Unmarshal(b)
			if err != nil {
				return nil, fmt.Errorf("%w: truncated record token", ErrBadVO)
			}
			vo.Tokens = append(vo.Tokens, Token{Kind: TokRecord, Record: r})
			b = b[record.Size:]
		case TokResult:
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: truncated result token", ErrBadVO)
			}
			vo.Tokens = append(vo.Tokens, Token{Kind: TokResult, Count: int(binary.BigEndian.Uint32(b[:4]))})
			b = b[4:]
		case TokKeyDig:
			if len(b) < 4+digest.Size {
				return nil, fmt.Errorf("%w: truncated key-digest token", ErrBadVO)
			}
			vo.Tokens = append(vo.Tokens, Token{
				Kind:   TokKeyDig,
				Key:    record.Key(binary.BigEndian.Uint32(b[:4])),
				Digest: digest.FromBytes(b[4 : 4+digest.Size]),
			})
			b = b[4+digest.Size:]
		case TokSep:
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: truncated separator token", ErrBadVO)
			}
			vo.Tokens = append(vo.Tokens, Token{Kind: TokSep, Key: record.Key(binary.BigEndian.Uint32(b[:4]))})
			b = b[4:]
		case TokExpand:
			if len(b) < agg.Size {
				return nil, fmt.Errorf("%w: truncated expand token", ErrBadVO)
			}
			vo.Tokens = append(vo.Tokens, Token{Kind: TokExpand, Agg: agg.FromBytes(b[:agg.Size])})
			b = b[agg.Size:]
		case TokLeafBegin, TokInnerBegin, TokNodeEnd:
			vo.Tokens = append(vo.Tokens, Token{Kind: kind})
		default:
			return nil, fmt.Errorf("%w: unknown token kind %d", ErrBadVO, kind)
		}
	}
	return vo, nil
}

// nodeCache holds the nodes one query has already read. A query's working
// set is O(height + result leaves), and any production DBMS buffer pool
// would serve repeated reads of those pages without new I/O, so RangeVOCtx
// charges each page once: findPred, findSucc and the VO recursion share one
// cache.
type nodeCache map[pagestore.PageID]*node

func (t *Tree) readNodeVia(ctx *exec.Context, c nodeCache, id pagestore.PageID) (*node, error) {
	if c != nil {
		if n, ok := c[id]; ok {
			return n, nil
		}
	}
	n, err := t.ReadNode(ctx, id)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c[id] = n
	}
	return n, nil
}

// maxEntry returns the largest entry in the subtree rooted at id, scanning
// children right to left so that leaves emptied by lazy deletion are skipped.
func (t *Tree) maxEntry(ctx *exec.Context, c nodeCache, id pagestore.PageID, level int) (bptree.Entry, bool, error) {
	n, err := t.readNodeVia(ctx, c, id)
	if err != nil {
		return bptree.Entry{}, false, err
	}
	if n.Leaf {
		if len(n.Entries) == 0 {
			return bptree.Entry{}, false, nil
		}
		return n.Entries[len(n.Entries)-1], true, nil
	}
	for i := len(n.Children) - 1; i >= 0; i-- {
		e, ok, err := t.maxEntry(ctx, c, n.Children[i], level-1)
		if err != nil || ok {
			return e, ok, err
		}
	}
	return bptree.Entry{}, false, nil
}

// minEntry mirrors maxEntry for the smallest entry.
func (t *Tree) minEntry(ctx *exec.Context, c nodeCache, id pagestore.PageID, level int) (bptree.Entry, bool, error) {
	n, err := t.readNodeVia(ctx, c, id)
	if err != nil {
		return bptree.Entry{}, false, err
	}
	if n.Leaf {
		if len(n.Entries) == 0 {
			return bptree.Entry{}, false, nil
		}
		return n.Entries[0], true, nil
	}
	for i := 0; i < len(n.Children); i++ {
		e, ok, err := t.minEntry(ctx, c, n.Children[i], level-1)
		if err != nil || ok {
			return e, ok, err
		}
	}
	return bptree.Entry{}, false, nil
}

// findPred locates the rightmost entry with key < lo, if any.
func (t *Tree) findPred(ctx *exec.Context, c nodeCache, lo record.Key) (bptree.Entry, bool, error) {
	target := bptree.Entry{Key: lo} // RID zero: any entry with key < lo is < target
	id := t.Root()
	// Subtrees guaranteed to hold entries below the target, nearest last.
	var leftSubtrees []struct {
		id    pagestore.PageID
		level int
	}
	for level := t.Height(); level > 1; level-- {
		n, err := t.readNodeVia(ctx, c, id)
		if err != nil {
			return bptree.Entry{}, false, err
		}
		// Descend into the first child whose separator is >= target.
		idx := 0
		for idx < len(n.Entries) && bptree.Compare(n.Entries[idx], target) < 0 {
			idx++
		}
		if idx > 0 {
			leftSubtrees = append(leftSubtrees, struct {
				id    pagestore.PageID
				level int
			}{n.Children[idx-1], level - 1})
		}
		id = n.Children[idx]
	}
	n, err := t.readNodeVia(ctx, c, id)
	if err != nil {
		return bptree.Entry{}, false, err
	}
	pos := 0
	for pos < len(n.Entries) && bptree.Compare(n.Entries[pos], target) < 0 {
		pos++
	}
	if pos > 0 {
		return n.Entries[pos-1], true, nil
	}
	// Fall back to the nearest left subtree with any live entry.
	for i := len(leftSubtrees) - 1; i >= 0; i-- {
		e, ok, err := t.maxEntry(ctx, c, leftSubtrees[i].id, leftSubtrees[i].level)
		if err != nil || ok {
			return e, ok, err
		}
	}
	return bptree.Entry{}, false, nil
}

// findSucc locates the leftmost entry with key > hi, if any.
func (t *Tree) findSucc(ctx *exec.Context, c nodeCache, hi record.Key) (bptree.Entry, bool, error) {
	// Entries with key == hi compare <= this target; key > hi compares >.
	target := bptree.Entry{Key: hi, RID: heapfile.RID{Page: pagestore.InvalidPage, Slot: 0xFFFF}}
	id := t.Root()
	var rightSubtrees []struct {
		id    pagestore.PageID
		level int
	}
	for level := t.Height(); level > 1; level-- {
		n, err := t.readNodeVia(ctx, c, id)
		if err != nil {
			return bptree.Entry{}, false, err
		}
		idx := 0
		for idx < len(n.Entries) && bptree.Compare(n.Entries[idx], target) <= 0 {
			idx++
		}
		if idx < len(n.Entries) {
			rightSubtrees = append(rightSubtrees, struct {
				id    pagestore.PageID
				level int
			}{n.Children[idx+1], level - 1})
		}
		id = n.Children[idx]
	}
	n, err := t.readNodeVia(ctx, c, id)
	if err != nil {
		return bptree.Entry{}, false, err
	}
	for pos := 0; pos < len(n.Entries); pos++ {
		if bptree.Compare(n.Entries[pos], target) > 0 {
			return n.Entries[pos], true, nil
		}
	}
	for i := len(rightSubtrees) - 1; i >= 0; i-- {
		e, ok, err := t.minEntry(ctx, c, rightSubtrees[i].id, rightSubtrees[i].level)
		if err != nil || ok {
			return e, ok, err
		}
	}
	return bptree.Entry{}, false, nil
}

// RangeVOCtx executes a range query and builds its verification object,
// charging node accesses to ctx. It returns the result RIDs (for the SP to
// fetch from the heap file), the VO with the two boundary records fetched
// from heap, and the given owner signature embedded.
func (t *Tree) RangeVOCtx(ctx *exec.Context, lo, hi record.Key, heap *heapfile.File, sig []byte) ([]heapfile.RID, *VO, error) {
	vo := &VO{Sig: append([]byte(nil), sig...)}
	if lo > hi {
		return nil, nil, fmt.Errorf("mbtree: inverted range [%d, %d]", lo, hi)
	}
	cache := make(nodeCache)
	pred, hasPred, err := t.findPred(ctx, cache, lo)
	if err != nil {
		return nil, nil, err
	}
	succ, hasSucc, err := t.findSucc(ctx, cache, hi)
	if err != nil {
		return nil, nil, err
	}
	b := &voBuilder{
		tree: t, heap: heap, cache: cache, ctx: ctx,
		lo: lo, hi: hi,
		pred: pred, hasPred: hasPred,
		succ: succ, hasSucc: hasSucc,
	}
	if err := b.build(t.Root(), t.Height(), vo); err != nil {
		return nil, nil, err
	}
	return b.rids, vo, nil
}

type voBuilder struct {
	tree    *Tree
	heap    *heapfile.File
	cache   nodeCache
	ctx     *exec.Context
	lo, hi  record.Key
	pred    bptree.Entry
	hasPred bool
	succ    bptree.Entry
	hasSucc bool
	rids    []heapfile.RID
	run     int // pending result-run length
}

func (b *voBuilder) flushRun(vo *VO) {
	if b.run > 0 {
		vo.Tokens = append(vo.Tokens, Token{Kind: TokResult, Count: b.run})
		b.run = 0
	}
}

// interestContains reports whether the closed composite interval
// [pred, succ] (with missing bounds treated as infinities) intersects the
// child range [childLo, childHi), where nil bounds are infinities.
func (b *voBuilder) overlaps(childLo, childHi *bptree.Entry) bool {
	if b.hasPred && childHi != nil && bptree.Compare(b.pred, *childHi) >= 0 {
		return false // child entirely below the interval
	}
	if b.hasSucc && childLo != nil && bptree.Compare(*childLo, b.succ) > 0 {
		return false // child entirely above the interval
	}
	if !b.hasPred {
		// Interval starts at (lo, -∞): children entirely below lo hold
		// nothing of interest.
		if childHi != nil && childHi.Key < b.lo {
			return false
		}
	}
	if !b.hasSucc {
		if childLo != nil && childLo.Key > b.hi {
			return false
		}
	}
	return true
}

func (b *voBuilder) build(id pagestore.PageID, level int, vo *VO) error {
	n, err := b.tree.readNodeVia(b.ctx, b.cache, id)
	if err != nil {
		return err
	}
	if n.Leaf {
		vo.Tokens = append(vo.Tokens, Token{Kind: TokLeafBegin})
		for i := range n.Entries {
			e := &n.Entries[i]
			isBoundary := (b.hasPred && bptree.Compare(*e, b.pred) == 0) ||
				(b.hasSucc && bptree.Compare(*e, b.succ) == 0)
			switch {
			case isBoundary:
				b.flushRun(vo)
				rec, err := b.heap.GetCtx(b.ctx, e.RID)
				if err != nil {
					return fmt.Errorf("mbtree: fetching boundary record: %w", err)
				}
				vo.Tokens = append(vo.Tokens, Token{Kind: TokRecord, Record: rec})
			case e.Key >= b.lo && e.Key <= b.hi:
				b.run++
				b.rids = append(b.rids, e.RID)
			default:
				b.flushRun(vo)
				vo.Tokens = append(vo.Tokens, Token{Kind: TokKeyDig, Key: e.Key, Digest: n.Vals[i]})
			}
		}
		b.flushRun(vo)
		vo.Tokens = append(vo.Tokens, Token{Kind: TokNodeEnd})
		return nil
	}
	vo.Tokens = append(vo.Tokens, Token{Kind: TokInnerBegin})
	for i, c := range n.Children {
		if i > 0 {
			vo.Tokens = append(vo.Tokens, Token{Kind: TokSep, Key: n.Entries[i-1].Key})
		}
		var childLo, childHi *bptree.Entry
		if i > 0 {
			childLo = &n.Entries[i-1]
		}
		if i < len(n.Entries) {
			childHi = &n.Entries[i]
		}
		if b.overlaps(childLo, childHi) {
			vo.Tokens = append(vo.Tokens, Token{Kind: TokExpand, Agg: n.Aggs[i]})
			if err := b.build(c, level-1, vo); err != nil {
				return err
			}
		} else {
			vo.Tokens = append(vo.Tokens, Token{Kind: TokChild, Digest: n.Vals[i], Agg: n.Aggs[i]})
		}
	}
	vo.Tokens = append(vo.Tokens, Token{Kind: TokNodeEnd})
	return nil
}

// VerifyVO is the client-side check: it reconstructs the root digest from
// the VO and the records received from the SP, verifies the owner's
// signature, and checks the completeness grammar (boundary records bracket
// the result with nothing pruned in between). A nil return means the result
// is provably sound and complete.
func VerifyVO(vo *VO, result []record.Record, lo, hi record.Key, ver *sigs.Verifier) error {
	// Result sanity: within range and sorted by key.
	for i := range result {
		if result[i].Key < lo || result[i].Key > hi {
			return fmt.Errorf("%w: result record %d outside query range", ErrBadVO, i)
		}
		if i > 0 && result[i-1].Key > result[i].Key {
			return fmt.Errorf("%w: result records out of key order at %d", ErrBadVO, i)
		}
	}

	// Reconstruct the root digest with a recursive descent over the token
	// stream, replaying the exact byte stream nodeDigest hashes.
	pos := 0
	resIdx := 0
	var parseNode func() (digest.Digest, error)
	parseNode = func() (digest.Digest, error) {
		if pos >= len(vo.Tokens) {
			return digest.Zero, fmt.Errorf("%w: expected node begin at token %d", ErrBadVO, pos)
		}
		switch vo.Tokens[pos].Kind {
		case TokLeafBegin:
			pos++
			w := digest.NewConcatWriter()
			for {
				if pos >= len(vo.Tokens) {
					return digest.Zero, fmt.Errorf("%w: unterminated leaf", ErrBadVO)
				}
				tok := &vo.Tokens[pos]
				switch tok.Kind {
				case TokNodeEnd:
					pos++
					return w.Sum(), nil
				case TokKeyDig:
					writeKeyTo(w, tok.Key)
					w.Add(tok.Digest)
					pos++
				case TokRecord:
					writeKeyTo(w, tok.Record.Key)
					w.Add(digest.OfRecord(&tok.Record))
					pos++
				case TokResult:
					if tok.Count <= 0 {
						return digest.Zero, fmt.Errorf("%w: non-positive result run", ErrBadVO)
					}
					for k := 0; k < tok.Count; k++ {
						if resIdx >= len(result) {
							return digest.Zero, fmt.Errorf("%w: VO references more result records than received", ErrBadVO)
						}
						writeKeyTo(w, result[resIdx].Key)
						w.Add(digest.OfRecord(&result[resIdx]))
						resIdx++
					}
					pos++
				default:
					return digest.Zero, fmt.Errorf("%w: token kind %d inside a leaf", ErrBadVO, tok.Kind)
				}
			}
		case TokInnerBegin:
			pos++
			w := digest.NewConcatWriter()
			needChild := true
			for {
				if pos >= len(vo.Tokens) {
					return digest.Zero, fmt.Errorf("%w: unterminated internal node", ErrBadVO)
				}
				tok := &vo.Tokens[pos]
				switch tok.Kind {
				case TokNodeEnd:
					if needChild {
						return digest.Zero, fmt.Errorf("%w: internal node missing a child", ErrBadVO)
					}
					pos++
					return w.Sum(), nil
				case TokSep:
					if needChild {
						return digest.Zero, fmt.Errorf("%w: misplaced separator", ErrBadVO)
					}
					writeKeyTo(w, tok.Key)
					needChild = true
					pos++
				case TokChild:
					if !needChild {
						return digest.Zero, fmt.Errorf("%w: adjacent children without a separator", ErrBadVO)
					}
					w.Add(tok.Digest)
					writeAggTo(w, tok.Agg)
					needChild = false
					pos++
				case TokExpand:
					if !needChild {
						return digest.Zero, fmt.Errorf("%w: adjacent children without a separator", ErrBadVO)
					}
					a := tok.Agg
					pos++
					d, err := parseNode()
					if err != nil {
						return digest.Zero, err
					}
					w.Add(d)
					writeAggTo(w, a)
					needChild = false
				default:
					return digest.Zero, fmt.Errorf("%w: token kind %d inside an internal node", ErrBadVO, tok.Kind)
				}
			}
		default:
			return digest.Zero, fmt.Errorf("%w: expected node begin at token %d", ErrBadVO, pos)
		}
	}
	rootDig, err := parseNode()
	if err != nil {
		return err
	}
	if pos != len(vo.Tokens) {
		return fmt.Errorf("%w: trailing tokens after root node", ErrBadVO)
	}
	if resIdx != len(result) {
		return fmt.Errorf("%w: VO consumed %d result records, received %d", ErrBadVO, resIdx, len(result))
	}
	if err := ver.Verify(rootDig, vo.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadVO, err)
	}

	// Completeness grammar over the flattened stream: D* B? R* B? D*, with
	// boundary keys bracketing the range, and a missing boundary only
	// acceptable when no pruned entry hides records on that side. TokKeyDig
	// and TokChild are both digest-like: each stands in for entries the
	// client cannot see.
	type coreItem struct {
		isRecord bool
		key      record.Key
		streamAt int
	}
	var core []coreItem
	firstD, lastD := -1, -1
	for i := range vo.Tokens {
		switch vo.Tokens[i].Kind {
		case TokKeyDig, TokChild:
			if firstD == -1 {
				firstD = i
			}
			lastD = i
		case TokRecord:
			core = append(core, coreItem{isRecord: true, key: vo.Tokens[i].Record.Key, streamAt: i})
		case TokResult:
			core = append(core, coreItem{isRecord: false, streamAt: i})
		}
	}
	if len(core) == 0 {
		// Nothing but digests would hide everything; only an entirely
		// empty tree (no digests at all) is acceptable.
		if firstD != -1 {
			return fmt.Errorf("%w: empty result with pruned entries and no boundary proof", ErrBadVO)
		}
		if len(result) != 0 {
			return fmt.Errorf("%w: received records but VO proves an empty tree", ErrBadVO)
		}
		return nil
	}

	// No digest may fall strictly inside the core span.
	coreBegin := core[0].streamAt
	coreEnd := core[len(core)-1].streamAt
	for i := coreBegin + 1; i < coreEnd; i++ {
		switch vo.Tokens[i].Kind {
		case TokKeyDig, TokChild:
			return fmt.Errorf("%w: pruned entries inside the result span (possible omission)", ErrBadVO)
		}
	}

	// Classify boundary records and validate bracketing.
	i := 0
	if core[i].isRecord && core[i].key < lo {
		i++ // left boundary present
	} else if firstD != -1 && firstD < coreBegin {
		return fmt.Errorf("%w: entries pruned before the result without a left boundary record", ErrBadVO)
	}
	j := len(core) - 1
	if j >= i && core[j].isRecord && core[j].key > hi {
		j-- // right boundary present
	} else if lastD != -1 && lastD > coreEnd {
		return fmt.Errorf("%w: entries pruned after the result without a right boundary record", ErrBadVO)
	}
	// Everything between the boundaries must be result runs.
	for ; i <= j; i++ {
		if core[i].isRecord {
			return fmt.Errorf("%w: unexpected record token inside the result span", ErrBadVO)
		}
	}
	return nil
}

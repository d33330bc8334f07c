package mbtree

import (
	"fmt"

	"sae/internal/agg"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/sigs"
)

// This file is the TOM side of the authenticated aggregation fast path:
// COUNT/SUM/MIN/MAX over a key range answered from the (count, sum, min,
// max) annotations internal entries carry, touching O(log n) pages instead
// of every qualifying leaf.
//
// The aggregate VO reuses the range-VO token stream. The server descends
// the canonical cover of [lo, hi]: children provably inside or provably
// outside the range are pruned to Child tokens (digest + annotation),
// children straddling a range endpoint are expanded, and frontier leaves
// list every entry as a KeyDig token. Because each internal node's digest
// binds its separator keys and child annotations, the client can replay
// the stream, re-derive the root digest, check the owner's signature, and
// independently re-classify every pruned child from the proven separators:
// a fully-covered child contributes its annotation, a fully-outside child
// contributes nothing, and a straddling child must have been expanded —
// anything else is rejected. The aggregate is therefore computed by the
// client from authenticated material only; the server never sends a bare
// scalar the client has to trust.

// AggVOCtx builds the verification object proving the aggregate over
// [lo, hi]; the client recomputes the aggregate from the VO itself via
// VerifyAggVO. The VO covers the canonical frontier only — O(log n)
// tokens — which is where the response-size win over a verified range
// scan comes from.
func (t *Tree) AggVOCtx(ctx *exec.Context, lo, hi record.Key, sig []byte) (*VO, error) {
	vo := &VO{Sig: append([]byte(nil), sig...)}
	if lo > hi {
		return nil, fmt.Errorf("mbtree: inverted range [%d, %d]", lo, hi)
	}
	if err := t.aggVOAt(ctx, t.Root(), t.Height(), lo, hi, nil, nil, vo); err != nil {
		return nil, err
	}
	return vo, nil
}

// aggVOAt emits the aggregate VO for the subtree at id. lb/ub are the
// subtree's inherited key bounds (nil = unknown), mirroring the bound
// threading VerifyAggVO performs, so the builder prunes exactly the
// children the client can re-classify.
func (t *Tree) aggVOAt(ctx *exec.Context, id pagestore.PageID, level int, lo, hi record.Key, lb, ub *record.Key, vo *VO) error {
	n, err := t.ReadNode(ctx, id)
	if err != nil {
		return err
	}
	if n.Leaf {
		// Frontier leaf: list every entry; the client filters by key.
		vo.Tokens = append(vo.Tokens, Token{Kind: TokLeafBegin})
		for i := range n.Entries {
			vo.Tokens = append(vo.Tokens, Token{Kind: TokKeyDig, Key: n.Entries[i].Key, Digest: n.Vals[i]})
		}
		vo.Tokens = append(vo.Tokens, Token{Kind: TokNodeEnd})
		return nil
	}
	vo.Tokens = append(vo.Tokens, Token{Kind: TokInnerBegin})
	for i, c := range n.Children {
		if i > 0 {
			vo.Tokens = append(vo.Tokens, Token{Kind: TokSep, Key: n.Entries[i-1].Key})
		}
		// Prune a child only when the client will be able to re-derive the
		// classification from proven separators.
		clb, cub := lb, ub
		if i > 0 {
			clb = &n.Entries[i-1].Key
		}
		if i < len(n.Entries) {
			cub = &n.Entries[i].Key
		}
		fullIn := clb != nil && *clb >= lo && cub != nil && *cub <= hi
		fullOut := (cub != nil && *cub < lo) || (clb != nil && *clb > hi)
		if fullIn || fullOut {
			vo.Tokens = append(vo.Tokens, Token{Kind: TokChild, Digest: n.Vals[i], Agg: n.Aggs[i]})
			continue
		}
		vo.Tokens = append(vo.Tokens, Token{Kind: TokExpand, Agg: n.Aggs[i]})
		if err := t.aggVOAt(ctx, c, level-1, lo, hi, clb, cub, vo); err != nil {
			return err
		}
	}
	vo.Tokens = append(vo.Tokens, Token{Kind: TokNodeEnd})
	return nil
}

// VerifyAggVO replays an aggregate VO: it reconstructs the root digest
// (checking it against the owner's signature) while re-classifying every
// pruned child from the separator keys the digests prove, and returns the
// proven aggregate of keys in [lo, hi]. The aggregate is sound — every
// contribution is either a proven-in-range annotation or a shown leaf key
// — and complete — a pruned child is accepted only with a proof that it
// lies entirely inside or entirely outside the range, so no qualifying key
// can be hidden.
func VerifyAggVO(vo *VO, lo, hi record.Key, ver *sigs.Verifier) (agg.Agg, error) {
	if lo > hi {
		return agg.Agg{}, fmt.Errorf("%w: inverted range [%d, %d]", ErrBadVO, lo, hi)
	}

	// A pruned child's upper bound is the separator that FOLLOWS it in the
	// stream, so its classification is deferred until that separator (or
	// the enclosing node's own upper bound) is known. Children on the
	// right spine of an expanded subtree share the ancestor separator that
	// eventually closes them, so unresolved items propagate up.
	type bound struct {
		k  record.Key
		ok bool
	}
	type pendItem struct {
		a  agg.Agg
		lb bound
	}
	resolve := func(pend []pendItem, ub bound) (agg.Agg, error) {
		var a agg.Agg
		for _, p := range pend {
			switch {
			case p.lb.ok && p.lb.k >= lo && ub.ok && ub.k <= hi:
				a = a.Merge(p.a) // provably inside [lo, hi]
			case (ub.ok && ub.k < lo) || (p.lb.ok && p.lb.k > hi):
				// provably outside: contributes nothing
			default:
				return agg.Agg{}, fmt.Errorf("%w: pruned child may straddle the range", ErrBadVO)
			}
		}
		return a, nil
	}

	pos := 0
	var parseNode func(lb bound) (digest.Digest, agg.Agg, []pendItem, error)
	parseNode = func(lb bound) (digest.Digest, agg.Agg, []pendItem, error) {
		if pos >= len(vo.Tokens) {
			return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: expected node begin at token %d", ErrBadVO, pos)
		}
		switch vo.Tokens[pos].Kind {
		case TokLeafBegin:
			pos++
			w := digest.NewConcatWriter()
			var a agg.Agg
			for {
				if pos >= len(vo.Tokens) {
					return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: unterminated leaf", ErrBadVO)
				}
				tok := &vo.Tokens[pos]
				switch tok.Kind {
				case TokNodeEnd:
					pos++
					return w.Sum(), a, nil, nil
				case TokKeyDig:
					writeKeyTo(w, tok.Key)
					w.Add(tok.Digest)
					if tok.Key >= lo && tok.Key <= hi {
						a = a.Add(tok.Key)
					}
					pos++
				default:
					return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: token kind %d inside an aggregate VO leaf", ErrBadVO, tok.Kind)
				}
			}
		case TokInnerBegin:
			pos++
			w := digest.NewConcatWriter()
			var a agg.Agg
			var pend []pendItem
			cur := lb
			needChild := true
			for {
				if pos >= len(vo.Tokens) {
					return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: unterminated internal node", ErrBadVO)
				}
				tok := &vo.Tokens[pos]
				switch tok.Kind {
				case TokNodeEnd:
					if needChild {
						return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: internal node missing a child", ErrBadVO)
					}
					pos++
					return w.Sum(), a, pend, nil
				case TokSep:
					if needChild {
						return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: misplaced separator", ErrBadVO)
					}
					writeKeyTo(w, tok.Key)
					ub := bound{k: tok.Key, ok: true}
					pa, err := resolve(pend, ub)
					if err != nil {
						return digest.Zero, agg.Agg{}, nil, err
					}
					a = a.Merge(pa)
					pend = nil
					cur = ub
					needChild = true
					pos++
				case TokChild:
					if !needChild {
						return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: adjacent children without a separator", ErrBadVO)
					}
					w.Add(tok.Digest)
					writeAggTo(w, tok.Agg)
					pend = append(pend, pendItem{a: tok.Agg, lb: cur})
					needChild = false
					pos++
				case TokExpand:
					if !needChild {
						return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: adjacent children without a separator", ErrBadVO)
					}
					ca := tok.Agg
					pos++
					d, suba, subpend, err := parseNode(cur)
					if err != nil {
						return digest.Zero, agg.Agg{}, nil, err
					}
					w.Add(d)
					writeAggTo(w, ca)
					a = a.Merge(suba)
					pend = append(pend, subpend...)
					needChild = false
				default:
					return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: token kind %d inside an internal node", ErrBadVO, tok.Kind)
				}
			}
		default:
			return digest.Zero, agg.Agg{}, nil, fmt.Errorf("%w: expected node begin at token %d", ErrBadVO, pos)
		}
	}
	rootDig, a, pend, err := parseNode(bound{})
	if err != nil {
		return agg.Agg{}, err
	}
	if pos != len(vo.Tokens) {
		return agg.Agg{}, fmt.Errorf("%w: trailing tokens after root node", ErrBadVO)
	}
	pa, err := resolve(pend, bound{})
	if err != nil {
		return agg.Agg{}, err
	}
	a = a.Merge(pa)
	if err := ver.Verify(rootDig, vo.Sig); err != nil {
		return agg.Agg{}, fmt.Errorf("%w: %v", ErrBadVO, err)
	}
	return a, nil
}

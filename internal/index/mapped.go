// Mapped-class range scan: decodes entry blocks straight out of the file
// mapping into pooled scratch and min-folds distances through the same
// record() closure the heap structures use, so mapped and heap answers
// are identical (the differential suite in mapped_test.go proves it).
//
// The scan is flat where the heap structures are trees: a mapped class
// walks every stored entry. What makes that acceptable is the bounded
// distance loop — each automorphism permutation is abandoned the moment
// its partial sum exceeds both sigma and the best distance so far, which
// is the same pruning a trie descent performs position by position, just
// without the shared-prefix sharing. In exchange the block is a single
// sequential read over mapped pages, which is exactly the access pattern
// an out-of-core index wants.

package index

import "pis/internal/distance"

// mappedRange scans c's mapped entry block and records every graph whose
// minimum-superposition distance to the query fragment is <= sigma.
// Steady-state it allocates nothing: decoded sequences and vectors land
// in RangeBuffer scratch.
func (x *Index) mappedRange(c *Class, qf QueryFragment, sigma float64, rb *RangeBuffer, record func(id int32, d float64)) {
	L := c.SeqLen()
	cur := blockCursor{b: c.entBlock}
	switch x.opts.Kind {
	case TrieIndex:
		if cap(rb.mseq) < L {
			rb.mseq = make([]uint32, L)
		}
		stored := rb.mseq[:L]
		for e := 0; e < c.entCount && !cur.done(); e++ {
			cur.symbols(stored)
			d := c.minSeqDistBounded(qf.Seq, stored, x.opts.Metric, sigma)
			n := int(cur.uvarint())
			if d > sigma {
				// Most entries are out of range: step over the id run
				// without decoding it.
				cur.skipVarints(n)
				continue
			}
			id := int32(0)
			for i := 0; i < n; i++ {
				delta := int32(cur.uvarint())
				if cur.bad {
					return
				}
				if i == 0 {
					id = delta
				} else {
					id += delta
				}
				record(id, d)
			}
		}
	case VPTreeIndex:
		if cap(rb.mseq) < L {
			rb.mseq = make([]uint32, L)
		}
		stored := rb.mseq[:L]
		for e := 0; e < c.entCount && !cur.done(); e++ {
			cur.symbols(stored)
			d := c.minSeqDistBounded(qf.Seq, stored, x.opts.Metric, sigma)
			id := int32(cur.uvarint())
			if cur.bad {
				return
			}
			if d <= sigma {
				record(id, d)
			}
		}
	case RTreeIndex:
		if cap(rb.mvec) < L {
			rb.mvec = make([]float64, L)
		}
		stored := rb.mvec[:L]
		for e := 0; e < c.entCount && !cur.done(); e++ {
			cur.floats(stored)
			d := c.minVecDistBounded(qf.Vec, stored, sigma)
			id := int32(cur.uvarint())
			if cur.bad {
				return
			}
			if d <= sigma {
				record(id, d)
			}
		}
	}
}

// minSeqDistBounded returns the minimum per-position cost over every
// automorphism variant of probe against stored, or an arbitrary value
// > sigma when no variant lands within sigma. Position costs are
// non-negative, so a permutation whose partial sum exceeds sigma can
// never come back in range and one that exceeds the best-so-far can
// never improve the minimum — both abandon early. Unlike orbitDistance
// this permutes by indexing (probe[p[i]]) instead of materializing the
// variant, so it needs no scratch and no allocation.
func (c *Class) minSeqDistBounded(probe, stored []uint32, m distance.Metric, sigma float64) float64 {
	best := distance.Infinite
	for _, p := range c.perms {
		d := 0.0
		for i, src := range p {
			d += c.positionCost(m, i, probe[src], stored[i])
			if d > sigma || d >= best {
				d = distance.Infinite
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return best
}

// minVecDistBounded is minSeqDistBounded for weight vectors under L1.
func (c *Class) minVecDistBounded(probe, stored []float64, sigma float64) float64 {
	best := distance.Infinite
	for _, p := range c.perms {
		d := 0.0
		for i, src := range p {
			w := probe[src] - stored[i]
			if w < 0 {
				w = -w
			}
			d += w
			if d > sigma || d >= best {
				d = distance.Infinite
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return best
}

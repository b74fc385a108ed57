// Tombstones mark graphs deleted from a live database segment without
// rebuilding its index. The class stores and bitmaps keep the dead ids; every read path filters them out instead, so a delete is
// O(1) and the index stays exactly the structure the paper's pruning
// guarantees were proven over. Compaction eventually rebuilds the index
// without the dead graphs and drops the tombstone set.
//
// The set is immutable after construction: mutators copy-on-write via
// WithSet, so a searcher holding a snapshot never observes a torn state
// and no locking is needed on the read side. At one bit per graph the
// copy is 16 KB per million graphs — noise next to a verification pass.

package index

// Tombstones is an immutable bitset of deleted local graph ids. The nil
// *Tombstones is the empty set, so an unmutated database pays nothing.
type Tombstones struct {
	words []uint64
	count int
}

// Has reports whether id is tombstoned. Safe on a nil receiver and for
// ids beyond the set's capacity (both report false).
func (t *Tombstones) Has(id int32) bool {
	if t == nil {
		return false
	}
	w := int(id) >> 6
	if w >= len(t.words) {
		return false
	}
	return t.words[w]&(1<<(uint(id)&63)) != 0
}

// Count returns the number of tombstoned ids. Safe on a nil receiver.
func (t *Tombstones) Count() int {
	if t == nil {
		return 0
	}
	return t.count
}

// WithSet returns a copy of t with id additionally tombstoned. The
// receiver (which may be nil) is not modified, so snapshots taken before
// the call stay valid.
func (t *Tombstones) WithSet(id int32) *Tombstones {
	need := int(id)>>6 + 1
	n := &Tombstones{}
	if t != nil {
		if len(t.words) > need {
			need = len(t.words)
		}
		n.words = make([]uint64, need)
		copy(n.words, t.words)
		n.count = t.count
	} else {
		n.words = make([]uint64, need)
	}
	w, b := int(id)>>6, uint(id)&63
	if n.words[w]&(1<<b) == 0 {
		n.words[w] |= 1 << b
		n.count++
	}
	return n
}

// AllSet returns a set with every id in [0, n) tombstoned.
func AllSet(n int) *Tombstones {
	t := &Tombstones{words: make([]uint64, (n+63)/64), count: n}
	for i := range t.words {
		t.words[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 && len(t.words) > 0 {
		t.words[len(t.words)-1] = (1 << uint(r)) - 1
	}
	return t
}

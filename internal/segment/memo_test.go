package segment

import (
	"fmt"
	"slices"
	"testing"
)

func testEntry(answers int, mark int32) *memoEntry {
	return &memoEntry{ids: make([]int32, answers), dists: make([]float64, answers), mark: mark}
}

// TestMemoByteBound: the memo is bounded in bytes, not entries. An entry
// larger than the whole budget is not admitted, and admitting one that
// fits evicts others until the total is back under the budget. A query's
// first entry waits on probation, within an eighth of the budget; a get
// or a second put moves the query to protected, and eviction takes the
// oldest probation entry first.
func TestMemoByteBound(t *testing.T) {
	const budget = 4096
	m := new(memo)
	big := memoKey{q: "big"}
	m.put(big, testEntry(budget/12+1, 0), budget)
	if m.get(big) != nil || m.bytes != 0 {
		t.Fatalf("an entry larger than the budget was admitted (%d bytes held)", m.bytes)
	}
	mid := memoKey{q: "mid"}
	if m.put(mid, testEntry(budget/8/12, 0), budget); m.entries[mid].e != nil {
		t.Fatalf("a first entry larger than probation's share was admitted (%d bytes held)", m.bytes)
	}
	var lists [2][]memoKey       // the model: each list's queries, least recently put first
	var evicted [2]int64         // and how many each list lost
	answers := map[memoKey]int{} // each query's entry size, in answers
	evictions := [2]int64{mMemoEvictions[probation].Value(), mMemoEvictions[protected].Value()}
	size := func(k memoKey) int64 { return k.size(testEntry(answers[k], 0)) }
	held := func(l int) (n int64) {
		for _, k := range lists[l] {
			n += size(k)
		}
		return n
	}
	for i := 0; i < 305; i++ {
		k := memoKey{q: fmt.Sprintf("q%03d", i)}
		to := probation
		switch {
		case i%10 == 9 && len(lists[probation]) > 0: // read a query waiting on probation
			k = lists[probation][0]
			lists[probation] = lists[probation][1:]
			lists[protected] = append(lists[protected], k)
			if m.get(k) == nil {
				t.Fatalf("step %d: %s is not resident", i, k.q)
			}
		case i%10 == 4 && len(lists[protected]) > 0: // put the least recently put protected query again, at its size
			k = lists[protected][0]
			to = protected
		default:
			answers[k] = i % 25
		}
		if m.entries[k].e == nil || i%10 != 9 { // a put: of a new query, or of a resident one again
			for l := range lists {
				if j := slices.Index(lists[l], k); j >= 0 {
					lists[l], to = slices.Delete(lists[l], j, j+1), protected
				}
			}
			for held(probation)+held(protected)+size(k) > budget || to == probation && held(probation)+size(k) > budget/8 {
				from := probation
				if len(lists[probation]) == 0 {
					from = protected
				}
				lists[from] = lists[from][1:]
				evicted[from]++
			}
			lists[to] = append(lists[to], k)
			m.put(k, testEntry(answers[k], 0), budget)
		}
		if m.bytes > budget {
			t.Fatalf("after %d steps the memo holds %d bytes, budget %d", i+1, m.bytes, budget)
		}
		if m.held[probation] > budget/8 {
			t.Fatalf("after %d steps probation holds %d bytes, its share is %d", i+1, m.held[probation], budget/8)
		}
		if m.entries[k].e == nil {
			t.Fatalf("step %d: the entry just stored is not resident", i)
		}
		var sum int64
		for k, s := range m.entries {
			sum += k.size(s.e)
		}
		if sum != m.bytes || m.held[probation]+m.held[protected] != m.bytes {
			t.Fatalf("after %d steps the memo accounts %d bytes (%v by list), its entries add up to %d", i+1, m.bytes, m.held, sum)
		}
		// The resident queries, and their order on each list, are the model's.
		for l := range lists {
			var got []memoKey
			for at := m.lists[l].Front(); at != nil; at = at.Next() {
				got = append(got, at.Value.(memoKey))
				if s := m.entries[got[len(got)-1]]; s.at != at || s.list != l {
					t.Fatalf("after %d steps %s's slot does not name its place on list %d", i+1, got[len(got)-1].q, l)
				}
			}
			if !slices.Equal(got, lists[l]) {
				t.Fatalf("after %d steps list %d holds %v, want %v", i+1, l, got, lists[l])
			}
		}
		if len(m.entries) != len(lists[probation])+len(lists[protected]) {
			t.Fatalf("after %d steps the memo holds %d queries, its lists %d", i+1, len(m.entries), len(lists[probation])+len(lists[protected]))
		}
	}
	if len(lists[probation]) == 0 || len(lists[protected]) < 2 {
		t.Fatalf("eviction emptied a list: %d queries on probation, %d protected", len(lists[probation]), len(lists[protected]))
	}
	for l, n := range evicted {
		if got := mMemoEvictions[l].Value() - evictions[l]; n == 0 || got != n {
			t.Fatalf("list %d: pis_result_memo_evictions_total advanced by %d, the model evicted %d (want some)", l, got, n)
		}
	}
	before := mMemoBytes.Value()
	m.clear()
	if m.bytes != 0 || len(m.entries) != 0 {
		t.Fatalf("clear left %d bytes in %d entries", m.bytes, len(m.entries))
	}
	if got := before - mMemoBytes.Value(); got <= 0 || got > budget {
		t.Fatalf("clear moved the pis_result_memo_bytes gauge by %g, want what the memo held (1..%d)", got, budget)
	}
}

// TestMemoNeverGoesBack: an entry is never replaced by one computed over
// an older snapshot, nor a kNN entry by one that searched a smaller
// radius; replacing by a newer one stores the new value and leaves the old
// one as it was (entries are immutable).
func TestMemoNeverGoesBack(t *testing.T) {
	const budget = 1 << 20
	m := new(memo)
	k := memoKey{q: "q", sigma: 2}
	at7 := testEntry(3, 7)
	m.put(k, at7, budget)
	m.put(k, testEntry(1, 5), budget)
	if got := m.get(k); got != at7 {
		t.Fatalf("an entry at mark 5 replaced the one at mark 7: %+v", got)
	}
	at9 := testEntry(2, 9)
	m.put(k, at9, budget)
	if got := m.get(k); got != at9 {
		t.Fatalf("an entry at mark 9 did not replace the one at mark 7: %+v", got)
	}
	if at7.mark != 7 || len(at7.ids) != 3 {
		t.Fatalf("the replaced entry was modified: %+v", at7)
	}
	if want := k.size(at9); m.bytes != want {
		t.Fatalf("after a replacement the memo accounts %d bytes, want %d", m.bytes, want)
	}

	kn := memoKey{q: "q", k: 3}
	wide := &memoEntry{mark: 9, radius: 6}
	m.put(kn, wide, budget)
	m.put(kn, &memoEntry{mark: 9, radius: 2}, budget)
	if got := m.get(kn); got != wide {
		t.Fatalf("a kNN entry at radius 2 replaced the one at radius 6: %+v", got)
	}
}

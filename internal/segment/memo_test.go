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
// fits evicts others until the total is back under the budget.
func TestMemoByteBound(t *testing.T) {
	const budget = 4096
	m := new(memo)
	big := memoKey{q: "big"}
	m.put(big, testEntry(budget/12+1, 0), budget)
	if m.get(big) != nil || m.bytes != 0 {
		t.Fatalf("an entry larger than the budget was admitted (%d bytes held)", m.bytes)
	}
	var order []memoKey          // the queries put, least recently put first
	answers := map[memoKey]int{} // each query's entry size, in answers
	for i := 0; i < 200; i++ {
		k := memoKey{q: fmt.Sprintf("q%03d", i)}
		if i%10 == 9 { // put the least recently put resident again, at its size
			k = order[len(order)-len(m.entries)]
		} else {
			answers[k] = i % 40
		}
		m.put(k, testEntry(answers[k], 0), budget)
		if m.bytes > budget {
			t.Fatalf("after %d puts the memo holds %d bytes, budget %d", i+1, m.bytes, budget)
		}
		if m.get(k) == nil {
			t.Fatalf("put %d: the entry just stored is not resident", i)
		}
		var sum int64
		for k, e := range m.entries {
			sum += k.size(e)
		}
		if sum != m.bytes {
			t.Fatalf("after %d puts the memo accounts %d bytes, its entries add up to %d", i+1, m.bytes, sum)
		}
		// The resident queries are the newest ones that fit.
		order = append(slices.DeleteFunc(order, func(o memoKey) bool { return o == k }), k)
		want, held := 0, int64(0)
		for j := len(order) - 1; j >= 0; j-- {
			if held += order[j].size(testEntry(answers[order[j]], 0)); held > budget {
				break
			}
			want++
		}
		for _, q := range order[len(order)-want:] {
			if m.entries[q] == nil {
				t.Fatalf("after %d puts %s is evicted, but it is among the %d newest queries, which fit", i+1, q.q, want)
			}
		}
		if len(m.entries) != want {
			t.Fatalf("after %d puts the memo holds %d queries, want the newest %d that fit", i+1, len(m.entries), want)
		}
	}
	if len(m.entries) < 2 {
		t.Fatalf("eviction emptied the memo: %d entries left under a budget for a dozen", len(m.entries))
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

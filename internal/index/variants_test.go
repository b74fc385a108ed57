package index

import (
	"slices"
	"testing"
)

// Variants returns every distinct automorphism variant of key: the probes
// the brute-force references of this package price one by one, where the
// scan walks all automorphisms at once. For a class with a single
// automorphism (the identity) the result aliases key without copying.
func (c *Class) Variants(key []uint64) [][]uint64 {
	if len(c.perms) == 1 {
		return [][]uint64{key}
	}
	var out [][]uint64
	for _, p := range c.perms {
		v := make([]uint64, len(key))
		for i, src := range p {
			v[i] = key[src]
		}
		if !slices.ContainsFunc(out, func(o []uint64) bool { return slices.Equal(o, v) }) {
			out = append(out, v)
		}
	}
	return out
}

// Regression: the dedup key of a sequence once truncated each symbol to
// its low 2 bytes, so symbols differing only above bit 15 merged. The
// staging fold keys entries by all eight bytes of every position, and a
// weight key stores all eight (a label key stores two: labels are uint16).
func TestSeqKeyKeepsAllFourBytes(t *testing.T) {
	var st staging
	st.fold([]uint64{1 << 16, 2 << 16}, 0)
	st.fold([]uint64{2 << 16, 1 << 16}, 0)
	st.fold([]uint64{1 << 40, 2 << 16}, 0)
	st.fold([]uint64{1 << 16, 2 << 16}, 1)
	keys, runs := sealed(&st, 2, true)
	if len(keys) != 3 {
		t.Fatalf("%d entries, want 3: keys that differ only in the high bytes merged", len(keys))
	}
	if got := runs[0]; !slices.Equal(got, []int32{0, 1}) || !slices.Equal(keys[0], []uint64{1 << 16, 2 << 16}) {
		t.Fatalf("first entry %v → %v", keys[0], got)
	}
}

func TestVariantsHighSymbolsStayDistinct(t *testing.T) {
	// Two sequence positions swapped by one non-trivial automorphism.
	c := &Class{perms: [][]int{{0, 1}, {1, 0}}}
	seq := []uint64{1 << 16, 2 << 16}
	vs := c.Variants(seq)
	if len(vs) != 2 {
		t.Fatalf("got %d variants, want 2 (high-byte symbols merged?)", len(vs))
	}
	if vs[0][0] != 1<<16 || vs[1][0] != 2<<16 {
		t.Fatalf("unexpected variants %v", vs)
	}
}

func TestVariantsSingleAutomorphismAliasesInput(t *testing.T) {
	c := &Class{perms: [][]int{{0, 1, 2}}}
	seq := []uint64{5, 6, 7}
	vs := c.Variants(seq)
	if len(vs) != 1 {
		t.Fatalf("got %d variants, want 1", len(vs))
	}
	// The single-automorphism fast path must not copy.
	if &vs[0][0] != &seq[0] {
		t.Error("single-automorphism variant was copied; want the input slice returned as-is")
	}
}

func TestVariantsDedupsEqualPermutations(t *testing.T) {
	// Symmetric sequence: both automorphisms generate the same variant.
	c := &Class{perms: [][]int{{0, 1}, {1, 0}}}
	vs := c.Variants([]uint64{9, 9})
	if len(vs) != 1 {
		t.Fatalf("got %d variants, want 1 after dedup", len(vs))
	}
}

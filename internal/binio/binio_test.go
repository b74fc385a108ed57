package binio

import (
	"bytes"
	"slices"
	"testing"
)

// section frames payload as one section and returns a reader positioned
// at its start.
func section(t *testing.T, payload []byte) *SectionReader {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSectionWriter(&buf)
	sw.Begin()
	sw.Bytes(payload)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sr := NewSectionReader(bytes.NewReader(buf.Bytes()))
	if err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestSlabCountBounded: a slab count the section cannot hold is a decode
// error, never an allocation or a panic — including counts whose byte
// size wraps around: 4·2^62 is 0 in an int.
func TestSlabCountBounded(t *testing.T) {
	for _, n := range []int{1 << 62, 1<<61 + 1, 3, -1} {
		sr := section(t, []byte{1, 0, 0, 0, 2, 0, 0, 0})
		if got := sr.I32Slab(n); got != nil || sr.Err() == nil {
			t.Errorf("I32Slab(%d) over 8 bytes = %v, err %v; want a decode error", n, got, sr.Err())
		}
		sr = section(t, []byte{1, 0, 0, 0, 2, 0, 0, 0})
		if got := sr.F64Slab(n); got != nil || sr.Err() == nil {
			t.Errorf("F64Slab(%d) over 8 bytes = %v, err %v; want a decode error", n, got, sr.Err())
		}
	}
	sr := section(t, []byte{1, 0, 0, 0, 2, 0, 0, 0})
	if got := sr.I32Slab(2); !slices.Equal(got, []int32{1, 2}) || sr.Err() != nil {
		t.Errorf("I32Slab(2) = %v, err %v", got, sr.Err())
	}
}

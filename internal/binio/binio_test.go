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

// TestWriteSectionLength: a section streamed from a reader reads back as
// its payload, and a reader that yields another length than declared is
// an error, not a section whose frame lies about its payload.
func TestWriteSectionLength(t *testing.T) {
	payload := bytes.Repeat([]byte("fingerprints"), 1000)
	var buf bytes.Buffer
	if err := WriteSection(&buf, len(payload), bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	sr := NewSectionReader(&buf)
	if err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if got := sr.Bytes(len(payload)); !bytes.Equal(got, payload) || sr.Remaining() != 0 {
		t.Fatal("the streamed section does not read back as its payload")
	}
	for _, n := range []int{len(payload) - 1, len(payload) + 1} {
		if err := WriteSection(new(bytes.Buffer), n, bytes.NewReader(payload)); err == nil {
			t.Errorf("a %d-byte payload declared as %d bytes was written", len(payload), n)
		}
	}
}
